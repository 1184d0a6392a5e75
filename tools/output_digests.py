"""Digest every file the CLI writes over a seeded corpus, to show that a
change leaves the outputs byte-identical.

Runs the command forms of ``tests/test_cli_runner.py`` (``generate`` to JSONL,
to CSV and from a saved config, ``mine``, ``gaps``, ``bound``, both
backtests and ``sweep-k``) on a corpus of ``--phones`` x ``--days`` from
``--seed``, in a fresh temporary directory. Prints one sha256 per output
file, then the digest of that list. In ``manifest.json`` every parameter
that names a path under the run's directory is made relative to it first,
so runs in different directories compare equal.

    python tools/output_digests.py --phones 4 --days 60 --seed 1
    python tools/output_digests.py --src ../parent/src --phones 2 --days 240 --seed 5

``--src`` picks the ``pcach`` sources to run (default: this checkout's).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def forms(phones: int, days: int, seed: int) -> list[list[str]]:
    corpus = ["--phones", str(phones), "--days", str(days), "--seed", str(seed)]
    return [
        ["generate", *corpus, "--out", "traces"],
        ["generate", *corpus, "--format", "csv", "--out", "traces-csv"],
        ["generate", "--phones", str(phones), "--config", "traces/generator_config.json",
         "--days", str(days), "--out", "traces-config"],
        ["mine", "--traces", "traces", "--out", "mined", "--local-utc-offset", "3600"],
        ["gaps", "--traces", "traces-csv", "--out", "gaps"],
        ["bound", "--traces", "traces", "--out", "bound", "--horizons", "15,60"],
        ["backtest", "--traces", "traces", "--predictor", "history", "--k", "5", "--seed", "2",
         "--out", "bt-history"],
        ["backtest", "--traces", "traces", "--predictor", "adaboost", "--k", "5", "--seed", "2",
         "--rounds", "10", "--out", "bt-ada"],
        ["sweep-k", "--traces", "traces", "--ks", "1,3,5", "--train-days", "4",
         "--out", "sweep"],
    ]


def file_digest(path: Path, root: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        doc["parameters"] = {
            key: os.path.relpath(value, root)
            if isinstance(value, str) and Path(value).is_relative_to(root) else value
            for key, value in doc["parameters"].items()}
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--phones", type=int, default=4)
    parser.add_argument("--days", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).resolve()
        for form in forms(args.phones, args.days, args.seed):
            # absolute paths, so that the manifests name the run's directory
            absolute = [str(root / a) if prev in ("--traces", "--out", "--config") else a
                        for prev, a in zip(["", *form], form)]
            subprocess.run([sys.executable, "-m", "pcach", *absolute], cwd=root, env=env,
                           check=True, stdout=subprocess.DEVNULL)
        lines = [f"{file_digest(p, root)}  {p.relative_to(root)}"
                 for p in sorted(root.rglob("*")) if p.is_file()]
    print("\n".join(lines))
    listing = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"list digest: {listing} ({len(lines)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
