"""Paths and seed derivation shared by the benchmark's scripts (stdlib only)."""

import hashlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"     # spans and temporary inputs


def sub_seed(seed, *parts) -> int:
    """Stable 62-bit seed for one use of the benchmark seed."""
    text = ":".join(str(p) for p in ("perfbench", seed, *parts))
    return int.from_bytes(hashlib.blake2s(text.encode()).digest()[:8], "big") >> 2
