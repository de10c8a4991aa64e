"""Shared fixture: one trained dual-tower model and the two synthetic KGs.

Training is fixture preparation, not set-up: the first run in a checkout
trains the model on the 2k-entity KG and saves it with
``EmbLookup.save``; every later run only loads it.  The 50k-entity KG is
pickled next to it because generating it takes longer than loading it.
Both live under ``perfbench/.work/fixtures/<key>``, where the key hashes
the program's sources and the fixture settings, so a changed program
never reuses stale weights.  A file lock serialises preparation.

Preparation runs in a child process (``python3 perfbench/fixture.py
model|kg50k``), so the run that prepares measures with the same heap and
warm-up as every other run.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import pickle
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.config import EmbLookupConfig
from repro.core.pipeline import EmbLookup
from repro.kg import SyntheticKGConfig, generate_kg

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"

KG_SEED = 17
SMALL_ENTITIES = 2_000
LARGE_ENTITIES = 50_000
TRAIN_CONFIG = EmbLookupConfig(
    epochs=4,
    triplets_per_entity=10,
    fasttext_epochs=6,
    batch_size=64,
    seed=2,
)


def _fixture_key() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    digest.update(repr((KG_SEED, SMALL_ENTITIES, LARGE_ENTITIES)).encode())
    digest.update(repr(TRAIN_CONFIG).encode())
    return digest.hexdigest()[:16]


@contextmanager
def _locked(directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "lock", "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


class Fixture:
    """Paths to the prepared model and KGs, preparing them on first use."""

    def __init__(self) -> None:
        self.dir = WORK / "fixtures" / _fixture_key()
        self.model_dir = self.dir / "model"
        self.prepare_s = 0.0

    def small_kg(self):
        return generate_kg(
            SyntheticKGConfig(num_entities=SMALL_ENTITIES, seed=KG_SEED)
        )

    @property
    def kg_path(self) -> Path:
        return self.dir / "kg50k.pickle"

    def large_kg(self):
        self._prepare("kg50k", self.kg_path)
        # The pickle was written by this module's child process.
        with open(self.kg_path, "rb") as handle:
            return pickle.load(handle)

    def ensure_model(self) -> Path:
        """Train and save the model once per fixture key; return its dir."""
        self._prepare("model", self.model_dir / "model.npz")
        return self.model_dir

    def _prepare(self, what: str, done: Path) -> None:
        with _locked(self.dir):
            if not done.exists():
                start = time.perf_counter()
                env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
                subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), what],
                    check=True,
                    env=env,
                )
                self.prepare_s += time.perf_counter() - start

    def write_large_kg(self) -> None:
        kg = generate_kg(
            SyntheticKGConfig(num_entities=LARGE_ENTITIES, seed=KG_SEED)
        )
        tmp = self.kg_path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(kg, handle, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(self.kg_path)

    def train_model(self) -> None:
        pipeline = EmbLookup(TRAIN_CONFIG)
        pipeline.fit(self.small_kg())
        tmp = self.dir / "model.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        pipeline.save(tmp)
        tmp.replace(self.model_dir)


if __name__ == "__main__":
    fixture = Fixture()
    {"model": fixture.train_model, "kg50k": fixture.write_large_kg}[sys.argv[1]]()
