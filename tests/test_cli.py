"""CLI surface: exit codes, report schema, determinism, serialization."""

import inspect
import json
import math
import subprocess
import sys

import pytest

from todamirror import cli
from todamirror import integrals as ig


def run_cli(args):
    return cli.main(args)


def test_commute_passes(capsys):
    assert run_cli(["commute", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["task"] == "commute"
    assert all(r["residual_terms"] == 0 for r in doc["results"])


def test_commute_failure_is_a_report(monkeypatch, capsys):
    from todamirror import operators as ops
    from todamirror.exact import LaurentPolynomial as LP
    family = ops.toda_operators

    def perturbed(n):
        d = family(n)
        d[1] = d[1] + ops.DifferentialOperator.multiplication(
            n, LP.variable("hbar") * LP.variable("q1"))
        return d

    monkeypatch.setattr(ops, "toda_operators", perturbed)
    assert run_cli(["commute", "--n", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    rows = {(r["n"], r["pair"]): r["residual_terms"] for r in doc["results"]}
    for n in (1, 2, 3):
        assert rows[n, "H,D2"] > 0
        assert rows[n, "D1,D2"] == 0  # a common shift of every t_i leaves q_1 alone


def test_mirror_passes(capsys):
    assert run_cli(["mirror", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True


def test_mirror_chart_failure_is_a_report(monkeypatch, capsys):
    from todamirror import mirror as mi
    consistent = mi.phase_consistency
    monkeypatch.setattr(mi, "phase_consistency",
                        lambda chart: chart.kseq != (1, 0) and consistent(chart))
    assert run_cli(["mirror", "--n", "2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    rows = {tuple(r["chart"]["k_sequence"]): r for r in doc["results"] if "chart" in r}
    assert len(rows) == 6
    assert rows[(1, 0)]["phase_consistency"] is False
    assert rows[(1, 0)]["multiset"] is True and rows[(1, 0)]["relations"] is True
    assert all(r["phase_consistency"] for k, r in rows.items() if k != (1, 0))


def test_critical_reports_six_points(capsys):
    code = run_cli(["critical", "--n", "2", "--lambda", "1/4,1/8,-3/8",
                    "--q", "1,1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    records = [r for r in doc["results"] if "k_sequence" in r]
    assert len(records) == 6 and all(r["nondegenerate"] for r in records)
    summary = [r for r in doc["results"] if "failed" in r][0]
    assert summary["failed"] == [] and summary["degenerate_charts"] == []
    assert summary["min_pairwise_distance"] > 1e-6
    assert len(doc["residuals"]["values"]) == 2 and doc["residuals"]["max"] < 1e-8


def test_critical_names_each_check_that_fails(monkeypatch, capsys):
    # the census guarantees (n+1)! distinct points; the other checks can each
    # fail for their own reason, and the summary names exactly those: here
    # every critical mutation of tests/test_checks_can_fail.py at once
    from test_checks_can_fail import MUTATIONS
    for task, _, _, install in MUTATIONS:
        if task == "critical":
            install(monkeypatch)
    assert run_cli(["critical", "--n", "2", "--lambda", "1/4,1/8,-3/8", "--q", "1,1"]) == 1
    summary = [r for r in json.loads(capsys.readouterr().out)["results"] if "failed" in r][0]
    assert summary["failed"] == ["spectral", "scaling", "uv_identity"]


def test_critical_failure_names_the_failed_check(capsys):
    # every residual of the n = 4 default draw passes; the row-scaled
    # nondegeneracy flag is what fails, and the report says so
    assert run_cli(["critical", "--n", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    summary = [r for r in doc["results"] if "failed" in r][0]
    assert summary["failed"] == ["nondegenerate"]
    flagged = [r["k_sequence"] for r in doc["results"]
               if "k_sequence" in r and not r["nondegenerate"]]
    assert summary["degenerate_charts"] == flagged != []
    # params echo the drawn lambda and q: passing them back reruns the draw
    lam, q = doc["params"]["lambda"], doc["params"]["q"]
    assert run_cli(["critical", "--n", "4", "--lambda", ",".join(lam), "--q", ",".join(q)]) == 1
    assert json.loads(capsys.readouterr().out)["results"] == doc["results"]


def test_eigen_n1(capsys):
    code = run_cli(["eigen", "--n", "1", "--lambda", "1/2,-1/2", "--q", "1",
                    "--hbar", "-1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residuals"]["max"] < 1e-6


def test_eigen_quadrature_block_is_deterministic(capsys):
    blocks = []
    for _ in range(2):
        assert run_cli(["eigen", "--n", "2", "--lambda", "1/4,1/8,-3/8", "--q", "3/4,5/4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        blocks.append(next(r["quadrature"] for r in doc["results"] if "quadrature" in r))
    assert blocks[0] == blocks[1]
    assert set(blocks[0]) == {"nodes_per_axis", "evaluations", "levels", "error"}
    assert blocks[0]["error"] <= 1e-11          # the eigen doubling tolerance


def test_classical_limit_and_factorization_do_not_import_scipy():
    # scipy is a test and benchmark dependency only
    code = ("import sys\n"
            "from todamirror import cli, integrals, mirror\n"
            "assert cli.main(['classical-limit', '--n', '2']) == 0\n"
            "chart = mirror.make_chart(mirror.build_graph(1), (0,))\n"
            "integrals.q_to_zero_factorization(1, (0.6, -0.6), -1.0, chart, 1e-4)\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_exit_code_on_invalid_lambda(capsys):
    assert run_cli(["critical", "--n", "2", "--lambda", "1/4,1/8,-1/4"]) == 2
    assert run_cli(["critical", "--n", "1", "--lambda", "1/2,1/2"]) == 2  # sum != 0
    assert run_cli(["critical", "--n", "1", "--lambda", "0,0"]) == 2      # repeated
    assert run_cli(["eigen", "--n", "1", "--q", "-1"]) == 2


def test_exit_code_on_unknown_task():
    assert run_cli(["no-such-task"]) == 2


def test_exit_code_on_unparsable_or_unsupported_input():
    assert run_cli(["critical", "--n", "1", "--lambda", "1/x,-1/x"]) == 2
    assert run_cli(["critical", "--n", "1", "--lambda", "1/0,0"]) == 2
    assert run_cli(["eigen", "--n", "3"]) == 2
    assert run_cli(["eigen", "--n", "1", "--chart", "5"]) == 2


def test_critical_solver_failure_is_a_report(monkeypatch, capsys):
    from todamirror import critical as cr
    track = cr._Lanes.track

    def never_arrives(self, *args, **kwargs):
        ends = track(self, *args, **kwargs)
        ends.errors = ["forced failure"] * len(ends.errors)
        return ends

    monkeypatch.setattr(cr._Lanes, "track", never_arrives)
    assert run_cli(["critical", "--n", "2", "--lambda", "1/4,1/8,-3/8", "--q", "1,1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    failure = doc["results"][0]["failure"]
    assert failure["stage"] == "census" and failure["chart"] == [0, 0]
    assert failure["error"] == "CriticalPointError" and "forced failure" in failure["message"]


def test_scaling_failure_is_a_report(monkeypatch, capsys):
    from todamirror import critical as cr

    def broken(records, c, **kwargs):
        raise cr.ContinuationError("forced failure", records[1].chart.kseq)

    monkeypatch.setattr(cr, "scaling_residual", broken)
    assert run_cli(["critical", "--n", "2", "--lambda", "1/4,1/8,-3/8", "--q", "1,1"]) == 1
    failure = json.loads(capsys.readouterr().out)["results"][0]["failure"]
    assert failure == {"stage": "quasi_homogeneity", "chart": [0, 1],
                       "error": "ContinuationError", "message": "forced failure"}


def test_scaling_solver_failure_is_a_report(monkeypatch, capsys):
    # the scaled solve is one Newton solve from given points; once the census
    # is in, a non-finite start for chart (0, 1) fails that solve in the lane
    # kernel itself
    import numpy as np
    from todamirror import critical as cr
    census, newton = cr.census, cr._Lanes._newton

    def nan_start(self, rows, s, c):
        s = s.copy()
        s[1] = np.nan
        return newton(self, rows, s, c)

    def census_then_nan_starts(*args):
        result = census(*args)
        monkeypatch.setattr(cr._Lanes, "_newton", nan_start)
        return result

    monkeypatch.setattr(cr, "census", census_then_nan_starts)
    assert run_cli(["critical", "--n", "2"]) == 1
    failure = json.loads(capsys.readouterr().out)["results"][0]["failure"]
    assert failure["stage"] == "quasi_homogeneity" and failure["chart"] == [0, 1]
    assert failure["error"] == "ContinuationError"
    assert "non-finite" in failure["message"] and "(0, 1)" in failure["message"]


def test_failure_exit_code(monkeypatch, capsys):
    def always_fail(cfg):
        return [{"forced": True}], [1.0], False, []
    monkeypatch.setitem(cli.RUNNERS, "commute", always_fail)
    assert run_cli(["commute", "--n", "1"]) == 1


def test_report_schema_fields(capsys):
    run_cli(["commute", "--n", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"task", "params", "results", "residuals", "pass",
                        "runtime_ms", "version", "warnings"}
    assert doc["version"] == cli.__version__
    assert doc["params"] == {"n": 1, "command": "todamirror commute --n 1"}


def test_determinism_same_seed(capsys):
    run_cli(["critical", "--n", "1", "--seed", "7"])
    a = json.loads(capsys.readouterr().out)
    run_cli(["critical", "--n", "1", "--seed", "7"])
    b = json.loads(capsys.readouterr().out)
    a["runtime_ms"] = b["runtime_ms"] = 0
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_is_one_line_of_json(monkeypatch, capsys):
    reports, run = [], cli.run

    def recording(cfg):
        reports.append(run(cfg))
        return reports[-1]

    monkeypatch.setattr(cli, "run", recording)
    assert run_cli(["critical", "--n", "1", "--lambda", "1/2,-1/2", "--q", "1"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out) == reports[0].to_dict()


def test_json_output_to_file(tmp_path):
    target = tmp_path / "report.json"
    assert run_cli(["commute", "--n", "1", "--output", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert doc["pass"] is True


def test_unwritable_output_is_invalid_input(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.json"
    assert run_cli(["commute", "--n", "1", "--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "no-such-dir" in err


def test_unwritable_output_exits_before_the_run(tmp_path, monkeypatch, capsys):
    from todamirror import critical as cr

    def never(*args, **kwargs):
        raise AssertionError("census ran although --output cannot be written")

    monkeypatch.setattr(cr, "census", never)
    target = tmp_path / "no-such-dir" / "x.json"
    assert run_cli(["critical", "--n", "3", "--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_empty_results_vacuous_pass_flagged(monkeypatch, capsys):
    def empty(cfg):
        return [], [], True, []
    monkeypatch.setitem(cli.RUNNERS, "commute", empty)
    assert run_cli(["commute", "--n", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert any("vacuous" in w for w in doc["warnings"])


def test_rationals_serialized_as_num_den(capsys):
    run_cli(["critical", "--n", "1", "--lambda", "1/2,-1/2", "--q", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["lambda"] == ["1/2", "-1/2"]
    assert doc["params"]["q"] == ["1/1"]


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "todamirror.cli", "commute",
                           "--n", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_all_suite_caps_eigen_dimension(capsys):
    assert run_cli(["all", "--n", "3", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert any("capped" in w for w in doc["warnings"])


SAMPLE = {"n": "1", "lam": "1/2,-1/2", "q": "1/2", "hbar": "-2", "truncation": "2",
          "stirling_order": "2", "chart": "0", "seed": "3"}
TOLERANCES = ("tol_spectral", "tol_scaling", "tol_eigen_n1", "tol_eigen_n2", "tol_oracle")
# flags the CLI no longer takes: a second input format, a second output
# format, and the tolerances, which are constants
REMOVED = [["--config", "suite.cfg"], ["--format", "text"]] + [
    ["--" + name.replace("_", "-"), "1"] for name in TOLERANCES]


def flag(name):
    return "--" + cli.FLAGS[name][0].replace("_", "-")


@pytest.mark.parametrize("task", cli.TASKS)
def test_each_subcommand_takes_exactly_the_settings_its_task_reads(task, monkeypatch, capsys):
    monkeypatch.setitem(cli.RUNNERS, task, lambda cfg: ([{"ran": True}], [0.0], True, []))
    own = cli.SETTINGS[task]
    assert run_cli([task] + [tok for name in own for tok in (flag(name), SAMPLE[name])]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert set(params) == {cli.FLAGS[name][0] for name in own} | {"command"}
    assert params.get("seed", 3) == 3 and params.get("n", 1) == 1
    for name in set(cli.FLAGS) - set(own):
        assert run_cli([task, flag(name), SAMPLE[name]]) == 2, flag(name)
    for tokens in REMOVED:
        assert run_cli([task] + tokens) == 2, tokens
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: {tokens[0]}" in err


def test_tolerances_are_constants_of_every_config():
    assert not set(TOLERANCES) & set(inspect.signature(cli.RunConfig).parameters)
    for task in cli.TASKS:
        cfg = cli.RunConfig(task=task)
        assert {name: getattr(cfg, name) for name in TOLERANCES} == dict.fromkeys(TOLERANCES, 1e-8)


@pytest.mark.parametrize("argv", [
    ["mirror", "--n", "2", "--lambda", "1/2,1/2,-1"],  # a flag mirror does not read
    ["all", "--n", "3", "--chart", "0,0,0"],            # all's eigen leg is capped at n = 2
    ["virasoro", "--truncation", "-3"],
    ["virasoro", "--truncation", "0"],
    ["virasoro", "--trunc", "2"],                        # no abbreviations
    ["classical-limit", "--stirling-order", "0"],
])
def test_unread_or_out_of_range_settings_exit_2(argv, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr().out == ""


def test_virasoro_runs_at_the_truncation_it_reports(capsys):
    assert run_cli(["virasoro", "--truncation", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["truncation"] == 2
    windows = {r["window"] for r in doc["results"] if r["check"] == "commutator"}
    assert windows == {2 + 7}


@pytest.mark.parametrize("argv, stage", [
    # the n = 1 grid converges at 257 nodes; the closed form's integrand overflows
    (["eigen", "--n", "1", "--hbar", "-0.001"], "bessel_oracle"),
    # never converges: the unpatched budget refuses its 1025^3 level
    (["eigen", "--n", "2", "--hbar", "-100"], "quadrature"),
])
def test_eigen_solver_failure_is_a_report(argv, stage, monkeypatch, capsys):
    budget, built = 1 << 16, []
    trapezoid_sums = ig._trapezoid_sums

    def recording(phase, lnq, axes, *args):
        # nodes evaluated so far: each level's total is its m^d
        built.append((built[-1] if built else 0) + math.prod(map(len, axes)))
        return trapezoid_sums(phase, lnq, axes, *args)

    monkeypatch.setattr(ig, "_LEVEL_NODES", budget)
    monkeypatch.setattr(ig, "_trapezoid_sums", recording)
    assert run_cli(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False and len(doc["results"]) == 1
    failure = doc["results"][0]["failure"]
    assert failure["stage"] == stage and failure["error"] == "QuadratureError"
    assert built and all(nodes <= budget for nodes in built)
