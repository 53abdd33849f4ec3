import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chancap import capacity, certify, channel_to_json, identity_channel
from chancap.cli import _csv, build_parser, main
from chancap.linalg import VALIDATION_TOL, maximally_entangled_state, random_pure_state


SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args, timeout=300):
    """``python *args`` in a fresh process, which imports chancap from this checkout's ``src``.

    The process inherits the environment with ``src`` put first on PYTHONPATH:
    pytest's own ``pythonpath`` setting reaches only the test process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env
    )


def run_cli(*args, timeout=300):
    """``python -m chancap.cli`` in a fresh process."""
    return run_python("-m", "chancap.cli", *args, timeout=timeout)


def run_main(capsys, *args):
    """``main(args)`` in this process, with its exit code and output as ``run_cli`` has them."""
    code = main(list(args))
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


def usage_error(capsys, *args) -> str:
    """The stderr of a command line that argparse rejects, which exits with code 1."""
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 1
    return capsys.readouterr().err


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(channel_to_json(identity_channel(2)))
    return str(path)


class TestCapacityCommand:
    def test_identity_channel_file(self, identity_file):
        res = run_cli("capacity", identity_file, "--format", "json")
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert abs(record["ce_bits"] - 2.0) < 1e-4
        assert abs(record["ch_bits"] - 1.0) < 1e-4
        assert record["ce_converged"] and record["ch_converged"]
        assert record["ce_stop_reason"] == record["ch_stop_reason"] == "gap"

    def test_fully_depolarizing_named(self, capsys):
        res = run_main(capsys, "capacity", "--named", "depolarizing:d=2,p=1", "--format", "json")
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert abs(record["ce_bits"]) < 1e-6 and abs(record["ch_bits"]) < 1e-6
        assert record["ratio"] == "undefined"

    def test_corrupt_kraus_shape(self, tmp_path, capsys):
        payload = json.loads(channel_to_json(identity_channel(2)))
        payload["kraus"][0] = payload["kraus"][0][:1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        res = run_main(capsys, "capacity", str(bad))
        assert res.returncode == 1
        assert "2x2" in res.stderr

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d_in": 2,\n  broken')
        res = run_main(capsys, "capacity", str(bad))
        assert res.returncode == 1
        assert "line" in res.stderr and "column" in res.stderr

    def test_non_trace_preserving_rejected(self, tmp_path, capsys):
        payload = json.loads(channel_to_json(identity_channel(2)))
        payload["kraus"][0][0][0] = [0.5, 0.0]
        bad = tmp_path / "tp.json"
        bad.write_text(json.dumps(payload))
        res = run_main(capsys, "capacity", str(bad))
        assert res.returncode == 1
        assert "trace preserving" in res.stderr
        # files are held to INPUT_TOL: a trace deviation of 5e-8 is rejected, 5e-9 is not
        for dev, code in ((5e-8, 1), (5e-9, 0)):
            payload["kraus"][0][0][0] = [float(np.sqrt(1.0 + dev)), 0.0]
            bad.write_text(json.dumps(payload))
            assert main(["chain", str(bad)]) == code

    def test_malformed_fields_report_an_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in (
            '{"d_in": 1, "d_out": 1, "kraus": [[[[1, null]]]]}',
            '{"d_in": 1e400, "d_out": 1, "kraus": [[[[1, 0]]]]}',
            '{"d_in": 1.9, "d_out": 1, "kraus": [[[[1, 0]]]]}',
            '{"d_in": 1, "d_out": 0, "kraus": [[[[1, 0]]]]}',
            "[1]",
            '"abc"',
            "null",
            "3",
        ):
            bad.write_text(text)
            res = run_main(capsys, "capacity", str(bad))
            assert res.returncode == 1, text
            assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_missing_channel(self, capsys):
        res = run_main(capsys, "capacity")
        assert res.returncode == 1

    def test_non_convergence_exit_code(self):
        res = run_cli(
            "capacity", "--named", "random:din=3,dout=3,seed=4", "--max-iter", "1",
            "--format", "json",
        )
        assert res.returncode == 2
        record = json.loads(res.stdout)
        assert not (record["ce_converged"] and record["ch_converged"])
        assert record["ch_stop_reason"] == "max_iter"  # one outer iteration cannot close the gap
        for side in ("ce", "ch"):
            assert (record[f"{side}_stop_reason"] == "gap") == record[f"{side}_converged"]

    def test_csv_reports_why_each_solver_stopped(self, capsys):
        res = run_main(capsys, "capacity", "--named", "depolarizing:d=2,p=0.5")
        assert res.returncode == 0
        header, row = res.stdout.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["ce_stop_reason"] == record["ch_stop_reason"] == "gap"
        assert record["ch_iterations"] == "1"  # the basis ensemble closes the first ascent's gap


class TestVerifyRatioCommand:
    def test_small_fuzz_run(self, capsys):
        res = run_main(
            capsys, "verify-ratio", "--trials", "5", "--din", "2", "--dout", "2", "--jobs", "1"
        )
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "trial,ce_bits,ch_bits,ratio,prefactor,slack_bits,converged"
        min_slack = float([l for l in lines if l.startswith("min_slack_bits")][0].split(",")[1])
        assert min_slack >= -1e-4

    def test_byte_identical_reruns(self):
        args = ("verify-ratio", "--trials", "2", "--seed", "7", "--jobs", "1")
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == second.returncode == 0, first.stderr
        assert first.stdout == second.stdout

    def test_dimension_one_trivial(self, capsys):
        res = run_main(capsys, "verify-ratio", "--trials", "2", "--din", "1", "--dout", "2")
        assert res.returncode == 0
        assert res.stdout == (
            "trial,ce_bits,ch_bits,ratio,prefactor,slack_bits,converged\n"
            "0,0,0,undefined,undefined,0,True\n"
            "1,0,0,undefined,undefined,0,True\n"
            "min_slack_bits,0\n"
            "note,input dimension 1: both capacities vanish; the bound holds trivially\n"
        )


class TestVerifySandwichCommand:
    def test_fuzz_run(self, capsys):
        res = run_main(capsys, "verify-sandwich", "--trials", "100", "--din", "4", "--jobs", "1")
        assert res.returncode == 0
        assert "max_violation_nats" in res.stdout
        rows = dict(
            line.split(",") for line in res.stdout.strip().splitlines()[1:]
        )
        assert float(rows["upper_bound"]) <= 1e-9
        assert float(rows["lower_bound"]) <= 1e-9


class TestChainCommand:
    def test_maximally_entangled_default(self, capsys):
        res = run_main(capsys, "chain", "--named", "identity:d=2")
        assert res.returncode == 0
        assert "monotone_ok,True" in res.stdout
        assert "support_margins" in res.stdout
        # every value is a closed form at d = 2: I = 2 ln 2, total weight 4d - 3,
        # dominance k = 2d - 3/2, the prefactor, and each support margin k/d - 1
        # (the reference is I/d)
        assert res.stdout == (
            "quantity,nats,bits\n"
            "mutual_info,1.38629,2\n"
            "reference_divergence,1.38629,2\n"
            "quadratic_bound,3,4.32809\n"
            "decomposed_bound,3,4.32809\n"
            "entropy_bound,9.86169,14.2274\n"
            "capacity_bound,9.86169,14.2274\n"
            "total_weight,5,\n"
            "dominance,2.5,\n"
            "prefactor,14.2274,\n"
            "support_margins," + " ".join(["0.25"] * 10) + ",\n"
            "monotone_ok,True,\n"
        )

    def test_first_column_lists_the_links_in_order(self, capsys):
        links = (
            "mutual_info", "reference_divergence", "quadratic_bound",
            "decomposed_bound", "entropy_bound", "capacity_bound",
        )
        assert certify.CHAIN_LINKS == links
        res = run_main(capsys, "chain", "--named", "identity:d=2")
        assert [line.split(",")[0] for line in res.stdout.splitlines()] == [
            "quantity", *links,
            "total_weight", "dominance", "prefactor", "support_margins", "monotone_ok",
        ]
        report = certify.chain_report(identity_channel(2), maximally_entangled_state(2))
        assert report.chain() == (
            report.mutual_info_nats,
            report.reference_divergence_nats,
            report.quadratic_bound_nats,
            report.decomposed_bound_nats,
            report.entropy_bound_nats,
            report.capacity_bound_nats,
        )

    def test_constant_channel_zero_head(self, capsys):
        res = run_main(capsys, "chain", "--named", "depolarizing:d=2,p=1")
        assert res.returncode == 0
        head = [l for l in res.stdout.splitlines() if l.startswith("mutual_info")][0]
        assert abs(float(head.split(",")[1])) < 1e-9

    def test_random_state_deterministic(self, capsys):
        args = ("chain", "--named", "random:din=2,dout=2,seed=3", "--state", "random:5")
        assert run_main(capsys, *args).stdout == run_main(capsys, *args).stdout

    def test_mixed_state_rejected(self, capsys):
        quarter = json.dumps(np.eye(4).tolist())
        res = run_main(capsys, "chain", "--named", "identity:d=2", "--state", quarter)
        assert res.returncode == 1
        assert "pure state required" in res.stderr

    def test_tol_reaches_chain_report(self, monkeypatch, capsys):
        seen = {}
        real = certify.chain_report

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(certify, "chain_report", spy)
        assert main(["chain", "--named", "identity:d=2", "--tol", "1e-5"]) == 0
        assert seen["tol"] == 1e-5
        assert "monotone_ok,True" in capsys.readouterr().out

    def test_failed_dominance_certificate_is_inconclusive(self, monkeypatch, capsys):
        # the entropy link assumes k sigma >= T(psi) on the whole family: one
        # support margin below -VALIDATION_TOL makes the chain inconclusive
        # with its links in order; a margin at -VALIDATION_TOL passes
        real = certify.chain_report
        for margin, code in ((-1e-6, 3), (-VALIDATION_TOL, 0)):

            def one_margin(*args, margin=margin, **kwargs):
                report = real(*args, **kwargs)
                report.support_margins[3] = margin
                return report

            monkeypatch.setattr(certify, "chain_report", one_margin)
            res = run_main(capsys, "chain", "--named", "identity:d=2")
            assert res.returncode == code
            assert "monotone_ok,True" in res.stdout

    def test_state_as_re_im_pairs(self, capsys):
        # a JSON array of [re, im] pairs is the complex vector it spells out:
        # the chain prints what --state random:5 prints for the same vector
        v = random_pure_state(4, 5)
        pairs = json.dumps([[z.real, z.imag] for z in v])
        named = ("chain", "--named", "random:din=2,dout=2,seed=3")
        res = run_main(capsys, *named, "--state", pairs)
        assert res.returncode == 0
        assert res.stdout == run_main(capsys, *named, "--state", "random:5").stdout

    def test_non_numeric_state_rejected(self, capsys):
        for spec in ('{"a": 1}', '[{"a": 1}, 0, 0, 0]'):
            res = run_main(capsys, "chain", "--named", "identity:d=2", "--state", spec)
            assert res.returncode == 1
            assert res.stderr.startswith("error: --state must be a JSON array of numbers")
            assert "Traceback" not in res.stderr
        # a bad random seed and a spec that is no JSON also name the flag
        for spec in ("random:abc", "random:-1", "nope"):
            res = run_main(capsys, "chain", "--named", "identity:d=2", "--state", spec)
            assert res.returncode == 1
            assert res.stderr.startswith("error: --state ")
            assert "Traceback" not in res.stderr


class TestSweepCommand:
    def test_small_sweep_with_svg(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        res = run_main(
            capsys, "sweep", "--points", "5", "--out", str(out), "--svg", str(svg), "--jobs", "1"
        )
        assert res.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,ce_bits,ch_bits,ratio"
        first = lines[1].split(",")
        assert abs(float(first[0])) < 1e-12
        assert abs(float(first[1]) - 2.0) < 1e-4
        assert abs(float(first[2]) - 1.0) < 1e-4
        assert abs(float(first[3]) - 2.0) < 1e-4
        probe = [l for l in lines if l.startswith("0.999,")][0].split(",")
        assert abs(float(probe[3]) - 3.0) / 3.0 < 0.05
        total_noise = [l for l in lines if l.startswith("1,")][0]
        assert total_noise.endswith("undefined")
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_unwritable_output(self, capsys):
        res = run_main(capsys, "sweep", "--points", "3", "--out", "/nonexistent/dir/x.csv")
        assert res.returncode == 1

    def test_in_process_entry_point(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--points", "3", "--out", str(out), "--jobs", "1"])
        assert code == 0
        assert out.read_text().startswith("p,ce_bits,ch_bits,ratio")

    def test_prints_the_library_sweep(self, capsys):
        res = run_main(capsys, "sweep", "--points", "5", "--jobs", "1")
        assert res.returncode == 0
        rows = capacity.depolarizing_capacity_sweep(capacity.depolarizing_grid(5))
        assert res.stdout == _csv([capacity.SweepPoint._fields, *rows])

    def test_solver_flags_are_usage_errors(self, capsys):
        # the sweep solves at one fixed setting, so it takes no solver flag
        for flag, value in (("--tol", "1e-7"), ("--max-iter", "5"), ("--restarts", "4"),
                            ("--seed", "5")):
            err = usage_error(capsys, "sweep", "--points", "3", flag, value)
            assert f"unrecognized arguments: {flag}" in err


class TestChannelInput:
    def test_input_checks_name_each_fault(self, identity_file, tmp_path, capsys):
        res = run_main(capsys, "capacity", identity_file, "--named", "identity:d=2")
        assert res.returncode == 1
        assert res.stderr == "error: give either a channel file or --named, not both\n"
        res = run_main(capsys, "capacity", str(tmp_path / "missing.json"))
        assert res.returncode == 1
        assert res.stderr.startswith("error: cannot read channel file: ")
        assert "missing.json" in res.stderr
        res = run_main(capsys, "capacity", "--named", "identity:d")
        assert res.returncode == 1
        assert res.stderr == "error: bad parameter 'd' in --named spec\n"


class TestConfigValidation:
    def test_defaults_come_from_capacity(self):
        parser = build_parser()
        assert build_parser() is parser  # built once per process
        for command in ("capacity", "verify-ratio", "chain"):
            args = parser.parse_args([command])
            assert args.tol == capacity.DEFAULT_TOL
            assert args.restarts == capacity.DEFAULT_RESTARTS
            if command != "chain":
                assert args.max_iter == capacity.DEFAULT_MAX_ITER
        # a command takes only the flags it reads
        assert not hasattr(parser.parse_args(["chain"]), "max_iter")
        sweep = vars(parser.parse_args(["sweep"]))
        assert not {"tol", "max_iter", "restarts", "seed"} & set(sweep)
        sandwich = vars(parser.parse_args(["verify-sandwich"]))
        assert not {"tol", "max_iter", "restarts", "dout"} & set(sandwich)
        ratio = inspect.signature(certify.verify_ratio_bound).parameters
        assert ratio["tol"].default == capacity.DEFAULT_TOL
        assert ratio["restarts"].default == capacity.DEFAULT_RESTARTS
        assert ratio["max_iter"].default == capacity.DEFAULT_MAX_ITER
        assert inspect.signature(certify.chain_report).parameters["tol"].default == (
            capacity.DEFAULT_TOL
        )

    def test_nonpositive_tolerance(self, capsys):
        for argv in (("verify-ratio", "--trials", "1"), ("capacity", "--named", "identity:d=2")):
            for tol in ("0", "inf", "nan"):
                err = usage_error(capsys, *argv, "--tol", tol)
                assert "tol" in err
                assert "argument --tol" in err
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--named", "identity:d=2", "--tol", "inf"])
        assert exc.value.code == 1
        # the parser is reused: after the usage error, in-process runs print
        # what a fresh process prints for the same flags
        capsys.readouterr()
        for fmt in ("json", "csv"):
            argv = ["capacity", "--named", "depolarizing:d=2,p=0.5", "--format", fmt]
            assert main(argv) == 0
            assert capsys.readouterr().out == run_cli(*argv).stdout

    def test_zero_trials(self, capsys):
        usage_error(capsys, "verify-sandwich", "--trials", "0")
        for flag in ("--din", "--dout", "--max-iter", "--restarts", "--trials", "--jobs"):
            err = usage_error(capsys, "verify-ratio", flag, "0")
            assert f"argument {flag}" in err
        # counts past sys.maxsize and negative seeds are usage errors too
        for flag, value in (("--trials", "1" + "0" * 30), ("--seed", "-1")):
            err = usage_error(capsys, "verify-sandwich", flag, value)
            assert f"argument {flag}" in err and "Traceback" not in err
        res = run_main(capsys, "verify-sandwich", "--trials", "2", "--seed", "0", "--jobs", "1")
        assert res.returncode == 0

    def test_unknown_named_channel(self, capsys):
        res = run_main(capsys, "capacity", "--named", "amplitude:d=2")
        assert res.returncode == 1
        # a key the family does not take, and a dimension or seed out of range,
        # are input errors that name the key
        for spec, key in (
            ("depolarizing:d=2,P=0.5", "'P'"),
            ("random:din=2,dout=2,sed=7", "'sed'"),
            ("identity:d=0", "d must be"),
            ("random:din=0", "din must be"),
            ("random:din=2,dout=0", "dout must be"),
            ("random:seed=-1", "seed must be"),
            ("random:din=3,dout=2,kraus=1", "kraus=1, din=3, dout=2"),
        ):
            res = run_main(capsys, "capacity", "--named", spec)
            assert res.returncode == 1
            assert key in res.stderr and "Traceback" not in res.stderr

    def test_non_numeric_named_value(self, capsys):
        # a value that does not parse is an input error that names its key
        for spec, message in (
            ("random:din=x", "error: din must be an integer in --named spec, got x"),
            ("depolarizing:d=2,p=abc", "error: p must be a number in --named spec, got abc"),
        ):
            res = run_main(capsys, "capacity", "--named", spec)
            assert res.returncode == 1
            assert res.stderr.strip() == message

    def test_zero_jobs(self, capsys):
        err = usage_error(capsys, "verify-sandwich", "--trials", "3", "--jobs", "0")
        assert "jobs" in err

    def test_format_only_on_capacity(self, capsys):
        err = usage_error(capsys, "sweep", "--format", "json", "--points", "3")
        assert "--format" in err


class TestParallelism:
    def test_jobs_flag_keeps_output_stable(self, capsys):
        args = ("verify-sandwich", "--trials", "40", "--din", "3", "--jobs")
        serial = run_main(capsys, *args, "1")
        parallel = run_main(capsys, *args, "4")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout


def test_import_loads_no_scipy():
    code = "import sys, chancap; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    res = run_python("-c", code, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_import_loads_no_worker_pool():
    # the pool is imported where --jobs starts workers, so capacity, chain and
    # every serial run start without concurrent.futures or multiprocessing
    pool = ("concurrent", "multiprocessing")
    code = f"import sys, chancap.cli; print([m for m in sys.modules if m.split('.')[0] in {pool}])"
    res = run_python("-c", code, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
