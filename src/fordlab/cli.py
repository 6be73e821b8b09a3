"""Command-line front end: verify constructions, enumerate traces, render SVG."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from fordlab.constructions import Certificate, build, verify_construction
from fordlab.exactnum import MixedRadicand, NotReal, QuadValue, qv_format
from fordlab.geometry import (
    LemmaViolation,
    PrismDomain,
    StripDomain,
    build_ford_two_gen,
    isometric_disk,
)
from fordlab.moebius import (
    MoebiusElement,
    bianchi_omega,
    mm_format,
    parse_generator_file,
)
from fordlab.tracesets import (
    DEFAULT_STATE_CAP,
    KINDS,
    StateExplosion,
    UnsupportedParameter,
    enumerate_traces,
    trace_sort_key,
)

EXIT_VERIFIED = 0
EXIT_FAILED = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70
EXIT_IO = 74

SCHEMA_VERSION = "1"

_REPORT_KEYS = {"schema_version", "target", "verdict", "checks", "coverage",
                "timings"}
_CHECK_KEYS = {"name", "status", "margin", "witnesses"}


def parse_target(text: str):
    if text == "modular":
        return "modular", None
    if ":" in text:
        kind, _, raw = text.partition(":")
        if kind in KINDS:
            try:
                return kind, int(raw)
            except ValueError:
                raise UnsupportedParameter(f"bad parameter in target {text!r}")
    raise UnsupportedParameter(f"unknown target {text!r}")


def _json_safe(value):
    if isinstance(value, QuadValue):
        return qv_format(value)
    if isinstance(value, Fraction):
        return qv_format(QuadValue(value))
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, set):
        return [_json_safe(v) for v in sorted(value, key=str)]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _check_to_json(check):
    out = {"name": check.name, "status": check.status}
    if check.margin is not None:
        out["margin"] = qv_format(check.margin)
    if check.witnesses:
        out["witnesses"] = _json_safe(check.witnesses)
    return out


def certificate_report(cert: Certificate, bound, elapsed: float,
                       normalize_timings: bool = False) -> dict:
    coverage = {
        "bound": qv_format(QuadValue(Fraction(bound))),
        "missing": [qv_format(t) for t in (cert.coverage.missing if cert.coverage else [])],
        "extra": [qv_format(t) for t in (cert.coverage.extra if cert.coverage else [])],
        "witness_words": cert.witnesses,
    }
    if cert.coverage_note:
        coverage["note"] = cert.coverage_note
    return {
        "schema_version": SCHEMA_VERSION,
        "target": cert.construction.model.target,
        "verdict": cert.verdict,
        "checks": [_check_to_json(c) for c in cert.checks],
        "coverage": coverage,
        "timings": {"total_s": 0.0 if normalize_timings else round(elapsed, 6)},
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def load_report(text: str) -> dict:
    report = json.loads(text)
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    unknown = set(report) - _REPORT_KEYS
    if unknown:
        raise ValueError(f"unknown report fields: {sorted(unknown)}")
    missing = _REPORT_KEYS - set(report)
    if missing:
        raise ValueError(f"missing report fields: {sorted(missing)}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {report['schema_version']!r}")
    for check in report["checks"]:
        bad = set(check) - _CHECK_KEYS
        if bad:
            raise ValueError(f"unknown check fields: {sorted(bad)}")
        if "name" not in check or "status" not in check:
            raise ValueError("check entries need name and status")
    return report


# -- SVG rendering ------------------------------------------------------------


_SCALE = 100
# height of the strip walls drawn by render_strip_svg
_STRIP_HEIGHT = 3.0


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _svg_circle(cx, cy, r, color, label=None):
    parts = [f'<circle cx="{_fmt(cx * _SCALE)}" cy="{_fmt(-cy * _SCALE)}" '
             f'r="{_fmt(r * _SCALE)}" fill="none" stroke="{color}" '
             'stroke-width="1"/>']
    if label:
        parts.append(f'<text x="{_fmt(cx * _SCALE)}" y="{_fmt(-cy * _SCALE - r * _SCALE - 4)}" '
                     f'font-size="9" text-anchor="middle" fill="{color}">'
                     f'{label}</text>')
    return parts


def _svg_line(x1, y1, x2, y2, color, width=1):
    return (f'<line x1="{_fmt(x1 * _SCALE)}" y1="{_fmt(-y1 * _SCALE)}" '
            f'x2="{_fmt(x2 * _SCALE)}" y2="{_fmt(-y2 * _SCALE)}" '
            f'stroke="{color}" stroke-width="{width}"/>')


def _floats(v: QuadValue) -> tuple[float, float]:
    """(re, im) of v as floats."""
    if v.m >= 0:
        return float(v.a) + float(v.b) * math.sqrt(v.m), 0.0
    return float(v.a), float(v.b) * math.sqrt(-v.m)


def _svg_document(body, min_x, max_x, min_y, max_y) -> str:
    """The SVG of body, its view one unit beyond the given extent."""
    view = " ".join(_fmt(v * _SCALE) for v in (
        min_x - 1, -(max_y + 1), max_x - min_x + 2, max_y - min_y + 2))
    head = f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">'
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_strip_svg(domains, conj_disks=(), intervals=()) -> str:
    body = []
    lo, hi = None, None
    for domain in domains:
        left, right = _floats(domain.left())[0], _floats(domain.right())[0]
        lo = left if lo is None else min(lo, left)
        hi = right if hi is None else max(hi, right)
        body.append(_svg_line(left, 0, left, _STRIP_HEIGHT, "#0868c4"))
        body.append(_svg_line(right, 0, right, _STRIP_HEIGHT, "#0868c4"))
        for disk, owner in domain.excluded:
            cx = _floats(disk.center)[0]
            r = float(disk.radius_sq) ** 0.5
            body.extend(_svg_circle(cx, 0, r, "#444444", mm_format(owner)))
    for disk, label in conj_disks:
        cx, cy = _floats(disk.center)
        r = float(disk.radius_sq) ** 0.5
        body.extend(_svg_circle(cx, cy, r, "#c22222", label))
    for x, y in intervals:
        body.append(_svg_line(_floats(x)[0], 0, _floats(y)[0], 0, "#22a022", 3))
    if lo is None:
        lo, hi = -1.0, 1.0
    body.append(_svg_line(lo - 0.5, 0, hi + 0.5, 0, "#000000"))
    return _svg_document(body, lo, hi, 0, _STRIP_HEIGHT)


def render_prism_svg(prism: PrismDomain, conj_disks=()) -> str:
    body = []
    t1, t2 = QuadValue(3), 3 * bianchi_omega(prism.d)
    corners = [prism.anchor, prism.anchor + t1, prism.anchor + t1 + t2,
               prism.anchor + t2]
    xs, ys = map(list, zip(*map(_floats, corners)))
    points = " ".join(f"{_fmt(x * _SCALE)},{_fmt(-y * _SCALE)}"
                      for x, y in zip(xs, ys))
    body.append(f'<polygon points="{points}" fill="none" stroke="#0868c4" '
                'stroke-width="1"/>')
    for disk, owner in prism.excluded:
        cx, cy = _floats(disk.center)
        r = float(disk.radius_sq) ** 0.5
        body.extend(_svg_circle(cx, cy, r, "#444444", mm_format(owner)))
        xs.extend((cx - r, cx + r))
        ys.extend((cy - r, cy + r))
    for disk, label in conj_disks:
        cx, cy = _floats(disk.center)
        r = float(disk.radius_sq) ** 0.5
        body.extend(_svg_circle(cx, cy, r, "#c22222", label))
    return _svg_document(body, min(xs), max(xs), min(ys), max(ys))


def render_construction_svg(construction) -> str:
    conj = [(isometric_disk(g), mm_format(alpha))
            for alpha in construction.conjugators if alpha is not None
            for g in (alpha, alpha.inv())]
    if isinstance(construction.subgroups[0].domain, PrismDomain):
        return render_prism_svg(construction.subgroups[0].domain, conj)
    domains = [s.domain for s in construction.subgroups if s.domain is not None]
    intervals = [iv for iv in construction.intervals if iv is not None]
    return render_strip_svg(domains, conj, intervals)


def render_generators_svg(gens) -> str:
    translations = [g for g in gens if g.c.is_zero() and not g.is_identity()]
    others = [g for g in gens if not g.c.is_zero()]
    if translations and len(others) == 1:
        try:
            domain = build_ford_two_gen(abs(translations[0].b), others[0])
            return render_strip_svg([domain])
        except (LemmaViolation, NotReal):
            # no two-generator domain: draw the isometric circles alone
            pass
    disks = [(isometric_disk(g), mm_format(g)) for g in others]
    default = StripDomain(0, Fraction(5, 2), MoebiusElement(1, 5, 0, 1), [])
    return render_strip_svg([default], disks)


# -- commands ------------------------------------------------------------------


def _search_args(args, default_bound):
    """The checked (bound, state cap) of a command; ValueError on bad input."""
    try:
        bound = Fraction(default_bound if args.bound is None else args.bound)
    except ZeroDivisionError:
        raise ValueError(f"bound {args.bound!r} divides by zero") from None
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    for name in ("max_word", "state_cap"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be at least 1")
    return bound, args.state_cap


def _emit(path, text) -> bool:
    """Write text to the file at path, or to stdout when path is None;
    False, after an i/o error line on stderr, when that fails."""
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return False
    return True


def cmd_verify(args) -> int:
    try:
        kind, param = parse_target(args.target)
        # half-space enumerations branch much faster per letter
        default_bound, default_word = (40, 8) if kind == "bianchi" else (50, 12)
        bound, state_cap = _search_args(args, default_bound)
        max_word = default_word if args.max_word is None else args.max_word
        construction = build(kind, param)
    except (LemmaViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.monotonic()
    cert = verify_construction(construction, bound, max_word,
                               state_cap=state_cap)
    elapsed = time.monotonic() - started
    report = certificate_report(cert, bound, elapsed,
                                normalize_timings=args.normalize_timings)
    if not _emit(args.report, dump_report(report)):
        return EXIT_IO
    if args.svg and not _emit(args.svg, render_construction_svg(construction)):
        return EXIT_IO
    print(f"{report['target']}: {cert.verdict}"
          + (f" ({'; '.join(cert.reasons[:3])})" if cert.reasons else ""))
    return {"Verified": EXIT_VERIFIED, "Failed": EXIT_FAILED,
            "Undecided": EXIT_UNDECIDED}[cert.verdict]


def cmd_traces(args) -> int:
    try:
        bound, state_cap = _search_args(args, None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.gens, "r", encoding="utf-8") as fh:
            gens = parse_generator_file(fh.read())
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if not gens:
        print("parse error: no generators in file", file=sys.stderr)
        return EXIT_DATA
    try:
        result = enumerate_traces(gens, args.max_word, bound,
                                  state_cap=state_cap)
    except StateExplosion as exc:
        # the search was cut short: no answer, as for an Undecided verify
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except MixedRadicand as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    lines = [f"trace {qv_format(t)} word {word}"
             for t, word in sorted(result.traces.items(),
                                   key=lambda kv: trace_sort_key(kv[0]))]
    text = "\n".join(lines) + ("\n" if lines else "")
    return EXIT_VERIFIED if _emit(args.out, text) else EXIT_IO


def cmd_render(args) -> int:
    try:
        if args.target:
            kind, param = parse_target(args.target)
            construction = build(kind, param)
            svg = render_construction_svg(construction)
        else:
            with open(args.gens, "r", encoding="utf-8") as fh:
                gens = parse_generator_file(fh.read())
            svg = render_generators_svg(gens)
    except (UnsupportedParameter, LemmaViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_VERIFIED if _emit(args.out, svg) else EXIT_IO


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line, like the other checks."""

    def error(self, message):
        print(f"error: {' '.join(message.split())}", file=sys.stderr)
        sys.exit(2)


def _out_path(text: str) -> str:
    """An output path option's value: any path but the empty one."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fordlab",
        description="Exact verification of Ford-domain constructions and "
                    "trace sets of Fuchsian and Bianchi groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a named construction")
    p_verify.add_argument("--target", required=True,
                          help="modular | gamma0:<n> | principal:<n> | "
                               "normalizer:<p> | bianchi:<d>")
    p_verify.add_argument("--bound", default=None,
                          help="trace bound (|t|, or |t|^2 for bianchi)")
    p_verify.add_argument("--max-word", type=int, default=None,
                          help="word length (default 12, bianchi 8)")
    p_verify.add_argument("--report", type=_out_path, default=None)
    p_verify.add_argument("--svg", type=_out_path, default=None)
    p_verify.add_argument("--normalize-timings", action="store_true")
    p_verify.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p_verify.set_defaults(func=cmd_verify)

    p_traces = sub.add_parser("traces", help="enumerate traces from a generator file")
    p_traces.add_argument("gens", help="file with one matrix per line")
    p_traces.add_argument("--max-word", type=int, default=8)
    p_traces.add_argument("--bound", default="50")
    p_traces.add_argument("--out", type=_out_path, default=None)
    p_traces.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p_traces.set_defaults(func=cmd_traces)

    p_render = sub.add_parser("render", help="render circles and domains as SVG")
    group = p_render.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", default=None)
    group.add_argument("--gens", default=None)
    p_render.add_argument("--out", type=_out_path, required=True)
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Exception as exc:
        # a fault of the program, never a Failed verdict
        detail = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {detail}",
              file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
