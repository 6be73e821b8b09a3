import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fordlab.cli
import fordlab.constructions
import fordlab.geometry
from fordlab.cli import (
    EXIT_DATA,
    EXIT_FAILED,
    EXIT_SOFTWARE,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    EXIT_VERIFIED,
    dump_report,
    load_report,
    main,
    parse_target,
)
from fordlab.constructions import UnsupportedParameter
from fordlab.exactnum import qv_parse


ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def test_parse_target():
    assert parse_target("modular") == ("modular", None)
    assert parse_target("gamma0:7") == ("gamma0", 7)
    assert parse_target("bianchi:19") == ("bianchi", 19)
    with pytest.raises(UnsupportedParameter):
        parse_target("gamma0:x")
    with pytest.raises(UnsupportedParameter):
        parse_target("foo:3")


def test_verify_exit_codes(tmp_path):
    report = tmp_path / "p3.json"
    code = run(["verify", "--target", "principal:3", "--bound", "40",
                "--max-word", "8", "--report", str(report)])
    assert code == EXIT_VERIFIED
    data = load_report(report.read_text())
    assert data["verdict"] == "Verified"
    assert data["coverage"]["missing"] == []

    assert run(["verify", "--target", "gamma0:0"]) == EXIT_USAGE
    assert run(["verify", "--target", "nonsense"]) == EXIT_USAGE


def test_verify_modular_command_form(tmp_path):
    report = tmp_path / "m.json"
    code = run(["verify", "--target", "modular", "--bound", "50",
                "--max-word", "12", "--report", str(report)])
    assert code == EXIT_VERIFIED
    data = load_report(report.read_text())
    assert data["verdict"] == "Verified"
    assert data["coverage"]["missing"] == [] and data["coverage"]["extra"] == []


def test_verify_failed_exit_code(tmp_path):
    # tiny word length leaves expected traces uncovered: Failed via coverage
    report = tmp_path / "fail.json"
    code = run(["verify", "--target", "principal:3", "--bound", "130",
                "--max-word", "2", "--report", str(report)])
    assert code == EXIT_FAILED
    data = load_report(report.read_text())
    assert data["verdict"] == "Failed"


def test_verify_undecided_exit_code(tmp_path):
    # a tiny state cap aborts enumeration: Undecided via StateExplosion
    report = tmp_path / "und.json"
    code = run(["verify", "--target", "principal:3", "--bound", "40",
                "--max-word", "10", "--state-cap", "5",
                "--report", str(report)])
    assert code == EXIT_UNDECIDED
    data = load_report(report.read_text())
    assert data["verdict"] == "Undecided"
    assert "StateExplosion" in data["coverage"]["note"]


def test_report_round_trip_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--target", "gamma0:7", "--bound", "30",
            "--max-word", "8", "--normalize-timings"]
    assert run(args + ["--report", str(a)]) == EXIT_VERIFIED
    assert run(args + ["--report", str(b)]) == EXIT_VERIFIED
    assert a.read_bytes() == b.read_bytes()
    report = load_report(a.read_text())
    assert dump_report(report) == a.read_text()


def test_report_margins_reparse_as_quadvalues(tmp_path):
    report_path = tmp_path / "m.json"
    assert run(["verify", "--target", "modular", "--bound", "20",
                "--max-word", "6", "--report", str(report_path)]) == EXIT_VERIFIED
    report = load_report(report_path.read_text())
    margins = [c["margin"] for c in report["checks"] if "margin" in c]
    assert margins
    for text in margins:
        qv_parse(text)


def test_report_rejects_unknown_fields():
    good = {"schema_version": "1", "target": "modular", "verdict": "Verified",
            "checks": [], "coverage": {}, "timings": {}}
    load_report(json.dumps(good))
    bad = dict(good)
    bad["surprise"] = 1
    with pytest.raises(ValueError):
        load_report(json.dumps(bad))
    bad2 = dict(good)
    bad2["checks"] = [{"name": "x", "status": "pass", "extra_field": 0}]
    with pytest.raises(ValueError):
        load_report(json.dumps(bad2))
    bad3 = dict(good)
    bad3["schema_version"] = "2"
    with pytest.raises(ValueError):
        load_report(json.dumps(bad3))


def test_traces_command(tmp_path, capsys):
    gens = tmp_path / "g.txt"
    gens.write_text("[[1,1],[0,1]]\n")
    out = tmp_path / "t.txt"
    assert run(["traces", str(gens), "--max-word", "5", "--bound", "10",
                "--out", str(out)]) == EXIT_VERIFIED
    assert out.read_text().startswith("trace 2 word ")

    gens.write_text("[[0,-1],[1,0]]\n[[1,5],[0,1]]\n")
    assert run(["traces", str(gens), "--max-word", "3", "--bound", "10",
                "--out", str(out)]) == EXIT_VERIFIED
    text = out.read_text()
    assert "trace 0 " in text and "trace 5 " in text

    gens.write_text("[[1,1],[0]]\n")
    assert run(["traces", str(gens)]) == EXIT_DATA


@pytest.mark.parametrize("max_word", ["1", "2"])
def test_traces_over_two_rings_is_a_data_error(tmp_path, capsys, max_word):
    gens = tmp_path / "g.txt"
    gens.write_text("[[1,1*sqrt(2)],[0,1]]\n[[1,0],[1*sqrt(3),1]]\n")
    assert run(["traces", str(gens), "--max-word", max_word]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: generators span the quadratic rings of "
                            "sqrt(2) and sqrt(3)\n")


def test_short_workloads_match_golden(tmp_path, monkeypatch, capsys):
    """Each short verify config of the benchmark reproduces its golden
    record: verdict, exit code, checks with margins and the trace set."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import oracle
    import workloads

    golden = oracle.load_golden()
    path = tmp_path / "report.json"
    configs = [c for name in workloads.VERIFY
               for c in workloads.verify_targets(name, "short")]
    assert len(configs) == 6
    for target, bound, max_word in configs:
        code = main(workloads.verify_argv(target, bound, max_word, path))
        report = json.loads(path.read_text(encoding="utf-8"))
        assert (oracle.golden_record(report, code)
                == golden[oracle.golden_key(target, bound, max_word)]), target


def test_traced_short_workloads_yield_every_span_metric(tmp_path, monkeypatch):
    """One traced pass of the benchmark's short verify configs gives every
    per-layer metric of BENCHMARK.json that the spans derive: a renamed or
    bypassed layer boundary drops one."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import child
    import spans
    import workloads

    run = child.Run("verify-int", 1, tmp_path, "short")
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        for name in workloads.VERIFY:
            done = run.verify_pass(workloads.verify_targets(name, "short"),
                                   tracer)
            assert not any(done.problems), done.problems
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    span_derived = {m["name"] for m in spec["per_layer"]
                    if m["name"].startswith(("tracesets.", "cli.report_"))}
    span_derived -= {"tracesets.bytes_per_state"}    # from the replay
    span_derived |= {"constructions.verify.self_s",
                     "geometry.two_gen_domain_s", "geometry.separation_s"}
    assert set(child.span_metrics(tracer)) == span_derived


def test_traces_deterministic_bytes(tmp_path):
    gens = tmp_path / "g.txt"
    gens.write_text("[[1,-1],[1,0]]\n[[1,5],[0,1]]\n")
    outs = []
    for i in range(2):
        out = tmp_path / f"t{i}.txt"
        assert run(["traces", str(gens), "--max-word", "6", "--bound", "30",
                    "--out", str(out)]) == EXIT_VERIFIED
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ids end in "-env=None", the names these cases are recorded under
@pytest.mark.parametrize("argv", [
    ["verify", "--target", "modular", "--bound", "1/0"],
    ["verify", "--target", "modular", "--bound", "-3"],
    ["verify", "--target", "modular", "--max-word", "0"],
    ["verify", "--target", "modular", "--parallelism", "0"],
    ["verify", "--target", "modular", "--state-cap", "0"],
    ["traces", "G", "--bound", "1/0"],
    ["traces", "G", "--bound", "-3"],
    ["traces", "G", "--bound", "abc"],
    ["traces", "G", "--max-word", "0"],
    ["traces", "G", "--parallelism", "0"],
    ["traces", "G", "--state-cap", "0"],
], ids=lambda argv: " ".join(argv) + "-env=None")
def test_bad_search_input_is_usage_error(tmp_path, capsys, argv):
    gens = tmp_path / "g.txt"
    gens.write_text("[[1,1],[0,1]]\n")
    assert run([str(gens) if a == "G" else a for a in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_parallelism_flag_is_rejected(tmp_path):
    gens = tmp_path / "g.txt"
    gens.write_text("[[1,1],[0,1]]\n")
    assert run(["verify", "--target", "modular", "--parallelism", "1"]) == EXIT_USAGE
    assert run(["traces", str(gens), "--parallelism", "1"]) == EXIT_USAGE


def test_traces_state_cap(tmp_path):
    # a search cut short by the cap is undecided, as in verify
    gens = tmp_path / "g.txt"
    gens.write_text("[[1,-1],[1,0]]\n[[1,5],[0,1]]\n")
    assert run(["traces", str(gens), "--max-word", "8", "--bound", "30",
                "--state-cap", "10"]) == EXIT_UNDECIDED


def test_internal_error_exits_70(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("broken\ninvariant")

    monkeypatch.setattr(fordlab.cli, "cmd_verify", broken)
    assert run(["verify", "--target", "modular"]) == EXIT_SOFTWARE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError: broken invariant\n"


def test_membership_fault_is_not_failed(monkeypatch, capsys):
    # only NotIntegral means "not a member": any other exception is a fault
    def broken(g, n):
        raise RuntimeError("broken membership test")

    monkeypatch.setattr(fordlab.constructions, "in_gamma0", broken)
    assert run(["verify", "--target", "gamma0:5", "--bound", "10",
                "--max-word", "4", "--normalize-timings"]) == EXIT_SOFTWARE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: internal error: RuntimeError: "
                            "broken membership test\n")


def test_render_targets(tmp_path):
    out = tmp_path / "m.svg"
    assert run(["render", "--target", "modular", "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.count("<circle") >= 6

    assert run(["render", "--target", "principal:2", "--out", str(out)]) == 0
    svg = out.read_text()
    assert 'r="50"' in svg            # disk of radius 1/2 at scale 100

    assert run(["render", "--target", "bianchi:5", "--out", str(out)]) == 0
    assert "<polygon" in out.read_text()


def test_render_empty_generator_file(tmp_path):
    gens = tmp_path / "empty.txt"
    gens.write_text("# nothing here\n")
    out = tmp_path / "e.svg"
    assert run(["render", "--gens", str(gens), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "<line" in svg


def test_render_io_error(tmp_path):
    assert run(["render", "--target", "principal:2",
                "--out", str(tmp_path / "no_dir" / "x.svg")]) == 74


@pytest.mark.parametrize("argv", [
    ["verify", "--target", "principal:2", "--bound", "5", "--max-word", "2",
     "--report", "BAD"],
    ["verify", "--target", "principal:2", "--bound", "5", "--max-word", "2",
     "--report", "OK", "--svg", "BAD"],
    ["traces", "GENS", "--max-word", "2", "--out", "BAD"],
], ids=["verify-report", "verify-svg", "traces-out"])
def test_unwritable_output_is_io_error(tmp_path, capsys, argv):
    gens = tmp_path / "g.txt"
    gens.write_text("[[1,1],[0,1]]\n")
    paths = {"BAD": str(tmp_path / "no_dir" / "x"), "OK": str(tmp_path / "r.json"),
             "GENS": str(gens)}
    assert run([paths.get(a, a) for a in argv]) == 74
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("i/o error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "--target", "modular", "--report", ""],
    ["verify", "--target", "modular", "--svg", ""],
    ["traces", "GENS", "--out", ""],
    ["render", "--target", "modular", "--out", ""],
], ids=["verify-report", "verify-svg", "traces-out", "render-out"])
def test_empty_output_path_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    # rejected while parsing, before any construction or enumeration runs
    def no_work(*args, **kwargs):
        raise AssertionError("work ran for an empty output path")

    monkeypatch.setattr(fordlab.cli, "build", no_work)
    monkeypatch.setattr(fordlab.cli, "enumerate_traces", no_work)
    gens = tmp_path / "g.txt"
    gens.write_text("[[1,1],[0,1]]\n")
    assert run([str(gens) if a == "GENS" else a for a in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_margin_fault_is_not_verified(monkeypatch, capsys):
    # a fault inside a margin must not drop the margin and still verify
    sqrt_qv = fordlab.geometry.sqrt_qv

    def broken(q):
        if sys._getframe(1).f_code.co_name == "separation_margin":
            raise RuntimeError("broken sqrt")
        return sqrt_qv(q)

    monkeypatch.setattr(fordlab.geometry, "sqrt_qv", broken)
    assert run(["verify", "--target", "bianchi:19", "--bound", "10",
                "--max-word", "4", "--normalize-timings"]) == EXIT_SOFTWARE
    assert capsys.readouterr().err == ("error: internal error: RuntimeError: "
                                       "broken sqrt\n")


@pytest.mark.parametrize("gens", [
    "[[1,5],[0,1]]\n[[2,-1],[1,0]]\n",            # a two-generator domain
    "[[1,1],[0,1]]\n[[0,-1],[1,0]]\n",            # LemmaViolation
    "[[1,1*sqrt(-1)],[0,1]]\n[[0,-1],[1,0]]\n",   # NotReal translation
])
def test_render_generators_falls_back_on_domain_errors(tmp_path, gens):
    path, out = tmp_path / "g.txt", tmp_path / "g.svg"
    path.write_text(gens)
    assert run(["render", "--gens", str(path), "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_render_generators_fault_exits_70(tmp_path, monkeypatch):
    def broken(m, g2):
        raise RuntimeError("broken domain")

    monkeypatch.setattr(fordlab.cli, "build_ford_two_gen", broken)
    path = tmp_path / "g.txt"
    path.write_text("[[1,5],[0,1]]\n[[2,-1],[1,0]]\n")
    assert run(["render", "--gens", str(path),
                "--out", str(tmp_path / "g.svg")]) == EXIT_SOFTWARE


def test_cli_import_does_not_load_numpy():
    # only the enumeration needs numpy; usage errors and geometry do not
    src = str(Path(fordlab.cli.__file__).resolve().parents[1])
    code = "import sys, fordlab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"
