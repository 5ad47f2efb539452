"""Output checks for the benchmark's CLI commands.

Two kinds of check feed ``failed``:

* checks that hold for any seed: exit code 0, the record count
  ``dates x pairs x (measures + VaR measures)``, zero violated ES cells, and
  zero violations for sweeps whose measure promises none;
* checks against references recorded for the default seeds
  (``references.json``): ``summary.json``, ``daily_rates.csv`` and
  ``correlations.csv`` byte for byte, ``violations.csv`` row for row with
  its flags exact and its gaps within a tolerance scaled to the data, and
  sweep JSON payloads with ``violations`` exact.

A gap may move in its last bits when summation order changes, so gaps are
compared through a fingerprint: their exact hash, their extremes, and eight
seeded random projections.  A projection moves by at most
``sum(|r|) * tol`` when every gap moves by at most ``tol``, and a single
gap moved by more than about ``sum(|r|) * tol`` shows in at least one of the
eight with overwhelming probability.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"

PIPELINE_FILES = ("violations.csv", "daily_rates.csv", "correlations.csv", "summary.json")
BYTE_EXACT = ("summary.json", "daily_rates.csv", "correlations.csv")
SKETCH_SEED = 20260301
SKETCHES = 8
# per-gap tolerance as a share of the largest absolute daily loss in the panel:
# summation-order changes move a gap by a few ulps of that scale, far less
GAP_RTOL = 1e-12
# sweep atoms are standard normal, so values are O(1); 1e-10 is far above
# summation-order noise and far below any gap that flips a verdict
SWEEP_ATOL = 1e-10
VIOLATIONS_HEADER = "date,pair,measure,params,gap,violated"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_fingerprint(outdir: Path) -> dict:
    """Everything the pipeline checks compare, read from one report directory."""
    outdir = Path(outdir)
    lines = (outdir / "violations.csv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != VIOLATIONS_HEADER:
        raise ValueError(f"violations.csv header is {lines[:1]}")
    rows = hashlib.sha256()
    gaps = np.empty(len(lines) - 1)
    violated = es_violated = 0
    for i, line in enumerate(lines[1:]):
        head, gap, flag = line.rsplit(",", 2)
        rows.update(f"{head},{flag}\n".encode())
        gaps[i] = float(gap)
        if flag == "true":
            violated += 1
            measure = head.split(",", 2)[2].rsplit(",", 1)[0]
            es_violated += measure.startswith("ES(")
        elif flag != "false":
            raise ValueError(f"violations.csv row {i + 2}: flag {flag!r}")
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    fp = {
        "rows": len(gaps),
        "rows_sha256": rows.hexdigest(),
        "gaps_sha256": sha256(gaps.tobytes()),
        "gap_min": float(gaps.min()) if gaps.size else 0.0,
        "gap_max": float(gaps.max()) if gaps.size else 0.0,
        "sketch": _sketch(gaps).tolist(),
        "violated": violated,
        "es_violated": es_violated,
        "n_records": summary.get("n_records"),
        "n_violations": summary.get("n_violations"),
    }
    for name in BYTE_EXACT:
        fp[name] = sha256((outdir / name).read_bytes())
    return fp


def _sketch_matrix(n: int) -> np.ndarray:
    return np.random.default_rng(SKETCH_SEED).standard_normal((SKETCHES, n))


def _sketch(gaps: np.ndarray) -> np.ndarray:
    return _sketch_matrix(gaps.size) @ gaps


def output_hashes(outdir: Path) -> dict:
    """Hash of every report file, to compare repetitions byte for byte."""
    return {name: sha256((Path(outdir) / name).read_bytes()) for name in PIPELINE_FILES}


def check_pipeline(fp: dict, cells: int, scale: float, ref: dict | None) -> list[str]:
    """Failures of one pipeline report; ``scale`` is the largest absolute loss."""
    out = []
    if fp["rows"] != cells or fp["n_records"] != cells:
        out.append(f"records: csv {fp['rows']}, summary {fp['n_records']}, expected {cells}")
    if fp["es_violated"]:
        out.append(f"{fp['es_violated']} violated ES cells")
    if fp["n_violations"] != fp["violated"]:
        out.append(f"summary counts {fp['n_violations']} violations, csv {fp['violated']}")
    if ref is None:
        return out
    for name in BYTE_EXACT:
        if fp[name] != ref[name]:
            out.append(f"{name} differs from the reference")
    if fp["rows"] != ref["rows"] or fp["rows_sha256"] != ref["rows_sha256"]:
        out.append("violations.csv rows or flags differ from the reference")
    elif fp["gaps_sha256"] != ref["gaps_sha256"]:
        tol = GAP_RTOL * scale
        bounds = tol * np.abs(_sketch_matrix(fp["rows"])).sum(axis=1)
        drift = np.abs(np.asarray(fp["sketch"]) - np.asarray(ref["sketch"]))
        if (abs(fp["gap_min"] - ref["gap_min"]) > tol or abs(fp["gap_max"] - ref["gap_max"]) > tol
                or np.any(drift > bounds)):
            out.append(f"violations.csv gaps differ from the reference beyond {tol:.3g}")
    return out


def sweep_payload(stdout: str) -> dict:
    return json.loads(stdout)


def check_sweep(payload: dict, trials: int, ref: dict | None) -> list[str]:
    """Failures of one ``sweep --format json`` payload."""
    out = []
    if payload.get("trials") != trials:
        out.append(f"{payload.get('measure')}: {payload.get('trials')} trials, expected {trials}")
    if payload.get("promises_zero") and payload.get("violations") != 0:
        out.append(f"{payload.get('measure')}: {payload.get('violations')} violations, promised 0")
    if ref is None:
        return out
    for key in sorted(set(ref) | set(payload)):
        a, b = payload.get(key), ref.get(key)
        if key == "worst_gap" and isinstance(a, float) and isinstance(b, float):
            if abs(a - b) > SWEEP_ATOL:
                out.append(f"{payload.get('measure')}: worst_gap {a!r}, reference {b!r}")
        elif a != b:
            out.append(f"{payload.get('measure')}: {key} {a!r}, reference {b!r}")
    return out


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def reference_for(refs: dict, workload: str, sizes: dict, seed: int) -> dict | None:
    """The reference recorded for this workload, size and seed, if any."""
    entry = refs.get(workload)
    if not entry or entry.get("sizes") != sizes:
        return None
    return entry["seeds"].get(str(seed))
