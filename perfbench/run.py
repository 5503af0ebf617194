"""Benchmark entry point for clinspan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  This process generates the workload's
inputs from ``--seed`` (and checks that the generator repeats itself),
trains the fixed model of the tagging workloads once per source tree in a
child process, then starts the measured process (worker.py) with the BLAS
thread count fixed.  The worker's last line of output is the result.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOADS = ("train-notes", "tag-notes", "annotate-online")
# OpenBLAS would start one thread per core; at these matrix sizes a second
# thread saves ~4 % of wall time for twice the CPU time, and it changes the
# summation order between machines.  One thread in one process.
BLAS_THREADS = "1"
FIXTURE_SEED = 7
RUN_LIMIT_S = 175.0

sys.path.insert(0, str(HERE))
import gen  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def write_notes(path: Path, notes, labelled: bool) -> str:
    text = gen.corpus_text(notes, labelled=labelled)
    path.write_text(text, encoding="utf-8")
    return text


def generate(world: gen.World, workload: str, seed: int, out: Path) -> str:
    """Write one workload's inputs; returns a digest of everything written."""
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    if workload in ("train-notes", "fixture"):
        notes = gen.make_notes(world, gen.PROFILES[workload], seed, 1)
        digest.update(write_notes(out / "corpus.txt", notes, True).encode())
        text = gen.embeddings_text(world)
        (out / "embeddings.txt").write_text(text, encoding="utf-8")
        digest.update(text.encode())
    if workload == "train-notes":
        test = gen.make_notes(world, gen.PROFILES["train-test"], seed, 2)
        digest.update(write_notes(out / "test.txt", test, False).encode())
        digest.update(write_notes(out / "test-gold.txt", test, True).encode())
    if workload in ("tag-notes", "annotate-online"):
        notes = gen.make_notes(world, gen.PROFILES[workload], seed, 3)
        digest.update(write_notes(out / "input.txt", notes, False).encode())
        digest.update(write_notes(out / "gold.txt", notes, True).encode())
    return digest.hexdigest()


def regenerated_digest(world: gen.World, workload: str, seed: int) -> str:
    """Self-test of the generator: the same seed must give the same inputs."""
    regen = WORK / "regen"
    digest = generate(world, workload, seed, regen)
    for f in regen.iterdir():
        f.unlink()
    return digest


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "clinspan").glob("*.py")) + [HERE / "gen.py", HERE / "worker.py"]:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_fixture(world: gen.World, deadline: float) -> Path:
    model = WORK / "fixture" / f"model-{source_digest()}.bin"
    if model.exists():
        return model
    for stale in model.parent.glob("model-*"):
        stale.unlink()
    generate(world, "fixture", FIXTURE_SEED, model.parent)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--train-fixture",
         "--inputs", str(model.parent), "--fixture", str(model)],
        env=child_env(), check=True, stdout=subprocess.DEVNULL,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return model


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    # On SIGTERM unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "clinspan" / "__init__.py").is_file():
        print(f"clinspan sources not found under {SRC}", file=sys.stderr)
        return 2
    seed = args.seed % 2**63
    start = time.monotonic()

    world = gen.build_world()
    inputs = WORK / "inputs"
    for w in WORKLOADS if args.trace else (args.workload,):
        digest = generate(world, w, seed, inputs / w)
        if regenerated_digest(world, w, seed) != digest:
            print(f"generator is not deterministic for {w}", file=sys.stderr)
            return 1
        if regenerated_digest(world, w, seed + 1) == digest:
            print(f"generator ignores the seed for {w}", file=sys.stderr)
            return 1
    try:
        built = time.monotonic()
        fixture = ensure_fixture(world, start + 900.0)
        start += time.monotonic() - built  # the one-off fixture build has its own limit
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--inputs", str(inputs), "--fixture", str(fixture),
             "--trace-out", str(WORK / "traces")],
            env=child_env(), timeout=max(1.0, start + RUN_LIMIT_S - time.monotonic()),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    return worker.returncode


if __name__ == "__main__":
    sys.exit(main())
