"""Correctness oracle for verify reports.

A golden record per (target, bound, max word) holds what the normalized
report said when the benchmark was defined: verdict, exit code, every
check's (name, status, margin), coverage missing/extra and the enumerated
trace set.  Witness words are not stored: each is re-multiplied exactly
instead, so a change in witness tie-breaking is not a failure.
"""

from __future__ import annotations

import json
from pathlib import Path

from fordlab.moebius import identity

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def golden_key(target: str, bound: int, max_word: int) -> str:
    return f"{target} bound={bound} max_word={max_word}"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def golden_record(report: dict, exit_code: int) -> dict:
    """The parts of a normalized report that every later run must reproduce."""
    coverage = report["coverage"]
    return {
        "verdict": report["verdict"],
        "exit_code": exit_code,
        "checks": [[c["name"], c["status"], c.get("margin")]
                   for c in report["checks"]],
        "missing": coverage["missing"],
        "extra": coverage["extra"],
        "traces": sorted(coverage["witness_words"]),
    }


def _word_element(gens, word: str):
    g = identity()
    if not word:
        return g, 0
    letters = word.split("*")
    for letter in letters:
        name, inverse, rest = letter.partition("^-1")
        if rest or not name.startswith("g"):
            raise ValueError(f"bad letter {letter!r}")
        h = gens[int(name[1:])]
        g = g * (h.inv() if inverse else h)
    return g, len(letters)


def witness_problems(report: dict, construction, max_word: int) -> list[str]:
    """Re-multiply every witness word and compare its canonical trace to its key."""
    gens_by_label = {sub.label: sub.gens for sub in construction.subgroups}
    gens_by_label.setdefault("H", construction.combined_gens)
    problems = []
    for key, witness in report["coverage"]["witness_words"].items():
        label, _, word = witness.rpartition(":")
        gens = gens_by_label.get(label)
        if gens is None:
            problems.append(f"witness {witness!r} names no generator set")
            continue
        try:
            element, length = _word_element(gens, word)
        except (ValueError, IndexError) as exc:
            problems.append(f"witness {witness!r} does not parse: {exc}")
            continue
        if length > max_word:
            problems.append(f"witness for {key} has length {length} > {max_word}")
        if str(element.canonical_trace()) != key:
            problems.append(f"witness for {key} multiplies to trace "
                            f"{element.canonical_trace()}")
    return problems


def report_problems(report: dict, exit_code: int, golden: dict,
                    construction, max_word: int) -> list[str]:
    """Every way a report differs from its golden record; empty when correct."""
    got = golden_record(report, exit_code)
    problems = []
    for field in ("verdict", "exit_code", "missing", "extra"):
        if got[field] != golden[field]:
            problems.append(f"{field}: {got[field]!r} != golden {golden[field]!r}")
    if got["checks"] != golden["checks"]:
        problems.append("checks differ from golden")
    if got["traces"] != golden["traces"]:
        lost = sorted(set(golden["traces"]) - set(got["traces"]))
        new = sorted(set(got["traces"]) - set(golden["traces"]))
        problems.append(f"trace set differs: lost {lost}, new {new}")
    problems.extend(witness_problems(report, construction, max_word))
    return problems
