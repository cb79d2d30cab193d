import argparse
import contextlib
import io
import json

import pytest

import graywyner as gw
from graywyner import cli as cli_module
from graywyner import common_information
from graywyner.cli import run
from graywyner.infotheory import PairStats

from conftest import example1, example2, example2_w_x0, spy_restarts


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def docs(tmp_path):
    ex1 = example1()
    ex2 = example2()
    paths = {
        "ex1": str(tmp_path / "ex1.pmf.json"),
        "ex2": str(tmp_path / "ex2.pmf.json"),
        "const": str(tmp_path / "const.aux.json"),
        "wx0": str(tmp_path / "wx0.aux.json"),
    }
    gw.save_pmf(ex1, paths["ex1"])
    gw.save_pmf(ex2, paths["ex2"])
    gw.save_aux_channel(gw.constant_channel(ex1), paths["const"])
    gw.save_aux_channel(example2_w_x0(), paths["wx0"])
    return paths


class TestInfo:
    def test_default_summary(self, docs):
        code, out, _ = cli("info", "--pmf", docs["ex1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["variables"] == ["X1", "X2", "X3"]
        kinds = {m["kind"] for m in doc["measures"]}
        assert kinds == {"entropy", "mutual_information"}

    @pytest.mark.parametrize("name", ["ex1", "ex2"])
    def test_default_pairs_are_the_pairwise_helper(self, docs, name):
        code, out, _ = cli("info", "--pmf", docs[name])
        assert code == 0
        listed = [
            ((m["a"], m["b"]), m["bits"])
            for m in json.loads(out)["measures"]
            if m["kind"] == "mutual_information"
        ]
        helper = common_information._pairwise_mi(gw.load_pmf(docs[name]))
        assert len(listed) == 3
        assert listed == [(([i], [j]), bits) for (i, j), bits in helper.items()]

    def test_requested_measures_match_library(self, docs):
        code, out, _ = cli(
            "info", "--pmf", docs["ex1"],
            "--entropy", "X1,X2", "--mi", "X1/X2", "--cond-entropy", "X2/X1",
        )
        assert code == 0
        doc = json.loads(out)
        pmf = example1()
        assert doc["measures"][0]["bits"] == gw.entropy(pmf, [0, 1])
        assert doc["measures"][1]["bits"] == gw.mutual_information(pmf, [0], [1])
        assert doc["measures"][2]["bits"] == gw.conditional_entropy(pmf, [1], [0])

    def test_unknown_variable_is_usage_error(self, docs):
        code, _, err = cli("info", "--pmf", docs["ex1"], "--entropy", "Nope")
        assert code == 2
        assert "unknown variable" in err


class TestCommonInfo:
    def test_gk_on_example2(self, docs):
        code, out, _ = cli("common-info", "--pmf", docs["ex2"], "--method", "gk")
        assert code == 0
        doc = json.loads(out)
        assert doc["value_bits"] == pytest.approx(1.0, abs=1e-12)
        assert doc["witness"]["deterministic"]
        assert doc["value_bits"] == gw.gk_common_information(example2()).value

    def test_wyner_requires_seed(self, docs):
        code, _, err = cli("common-info", "--pmf", docs["ex2"], "--method", "wyner")
        assert code == 2
        assert "--seed" in err

    def test_wyner_witness_roundtrip(self, docs, tmp_path):
        witness_path = str(tmp_path / "witness.aux.json")
        code, out, _ = cli(
            "common-info", "--pmf", docs["ex2"], "--method", "wyner",
            "--w-cardinality", "3", "--restarts", "2", "--seed", "7",
            "--witness-out", witness_path,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value_bits"] == pytest.approx(1.0, abs=1e-3)
        witness = gw.load_aux_channel(witness_path)
        assert witness.w_cardinality == 3


class TestRegion:
    def test_corner_matches_library(self, docs):
        code, out, _ = cli(
            "region", "corner", "--pmf", docs["ex2"], "--aux", docs["wx0"]
        )
        assert code == 0
        doc = json.loads(out)
        corner = gw.corner_point(example2(), example2_w_x0())
        assert doc["r0"] == corner.r0
        assert tuple(doc["rk"]) == corner.rk
        assert doc["delta"] == corner.delta

    def test_corner_delta_of_constant_w_equals_verify_delta_max(self, docs):
        code, out, _ = cli(
            "region", "corner", "--pmf", docs["ex1"], "--aux", docs["const"]
        )
        corner_delta = json.loads(out)["delta"]
        code2, out2, _ = cli("verify", "--pmf", docs["ex1"])
        assert code2 == 0
        assert json.loads(out2)["delta_max"] == corner_delta

    def test_sweep_csv_schema(self, docs):
        code, out, _ = cli(
            "region", "sweep", "--pmf", docs["ex2"], "--r0-grid", "0,1",
            "--restarts", "1", "--seed", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# schema: graywyner.region.sweep v1")
        assert lines[1] == "r0_budget,delta,converged,witness_file"
        assert len(lines) == 4

    def test_sweep_witness_dump(self, docs, tmp_path):
        wdir = tmp_path / "witnesses"
        wdir.mkdir()
        code, out, _ = cli(
            "region", "sweep", "--pmf", docs["ex2"], "--r0-grid", "1",
            "--restarts", "1", "--seed", "5", "--witness-dir", str(wdir),
        )
        assert code == 0
        doc = json.loads(out)
        witness = gw.load_aux_channel(doc["points"][0]["witness_file"])
        corner = gw.corner_point(example2(), witness)
        assert corner.delta == pytest.approx(doc["points"][0]["delta"], abs=1e-12)

    def test_sweep_json_is_strict_for_an_infinite_budget(self, docs):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code, out, _ = cli(
            "region", "sweep", "--pmf", docs["ex2"], "--r0-grid", "1,inf",
            "--restarts", "0", "--seed", "1",
        )
        assert code == 0
        points = json.loads(out, parse_constant=reject)["points"]
        assert [p["r0_budget"] for p in points] == [1.0, "inf"]

    def test_sweep_needs_no_seed(self, docs):
        # The sweep is not randomized: without --seed it prints what it
        # prints with one.
        argv = ("region", "sweep", "--pmf", docs["ex2"], "--r0-grid", "0,0.5,1,inf")
        code, out, err = cli(*argv)
        assert code == 0
        assert err == ""
        assert (code, out, err) == cli(*argv, "--seed", "5")
        assert cli(*argv, "--format", "csv") == cli(*argv, "--format", "csv", "--seed", "9")

    def test_check_with_witness_file(self, docs):
        code, out, _ = cli(
            "region", "check", "--pmf", docs["ex2"], "--r0", "1.0",
            "--rk", "1,1,1", "--delta", "6.0", "--aux", docs["wx0"],
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "achievable"

    def test_check_search(self, docs):
        code, out, _ = cli(
            "region", "check", "--pmf", docs["ex2"], "--r0", "0",
            "--rk", "2,2,2", "--delta", "6.0", "--restarts", "1", "--seed", "4",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "achievable"


class TestSimulate:
    def test_structured_report(self, docs):
        code, out, _ = cli(
            "simulate", "--pmf", docs["ex2"], "--aux", docs["wx0"],
            "--n", "3", "--slack", "0.25", "--trials", "200", "--seed", "7",
            "--exact-equivocation",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 200
        assert len(doc["error_rates"]) == 3
        assert doc["equivocations"] is not None
        assert doc["targets"]["equivocations"] == [2.0, 2.0, 2.0]

    def test_requires_seed(self, docs):
        code, _, err = cli(
            "simulate", "--pmf", docs["ex2"], "--aux", docs["wx0"],
            "--n", "3", "--slack", "0.25", "--trials", "10",
        )
        assert code == 2

    def test_trend_csv(self, docs):
        code, out, _ = cli(
            "simulate", "--pmf", docs["ex2"], "--aux", docs["wx0"],
            "--n-grid", "2,3", "--slack", "0.25", "--trials", "100",
            "--seed", "7", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# schema: graywyner.simulate.trend v1")
        assert lines[1] == "n,encoder_failure_rate,pe_1,pe_2,pe_3"
        assert len(lines) == 4

    def test_each_codebook_is_built_once(self, docs, monkeypatch):
        # The trials and the exact equivocations of one blocklength share
        # one codebook and its statistics.
        builds = []
        init = PairStats.__init__

        def spy(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(PairStats, "__init__", spy)
        code, _, _ = cli(
            "simulate", "--pmf", docs["ex2"], "--aux", docs["wx0"],
            "--n-grid", "2,3", "--slack", "0.25", "--trials", "20",
            "--seed", "7", "--exact-equivocation",
        )
        assert code == 0
        assert len(builds) == 2


class TestVerify:
    def test_props_and_chain(self, docs):
        code, out, _ = cli(
            "verify", "--pmf", docs["ex2"], "--props", "1,2,3,4", "--chain",
            "--w-cardinality", "3", "--restarts", "2", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["prop1"]["holds"]
        assert doc["prop2"]["holds"]
        assert doc["prop3"]["holds"]
        assert doc["prop4"]["conclusion_holds"]
        assert doc["chain"]["holds"]

    @pytest.mark.parametrize("name, argv, runs", [
        ("ex2", ["--props", "1,2,3,4", "--chain", "--w-cardinality", "3",
                 "--restarts", "2"], 1),
        # Example 1's pairwise MIs differ, so prop 4 needs no B.
        ("ex1", ["--props", "4"], 0),
        # Each reader of B alone computes it once; props 1 and 2 need none.
        ("ex2", ["--props", "3", "--restarts", "2"], 1),
        ("ex2", ["--props", "4", "--restarts", "2"], 1),
        ("ex2", ["--chain", "--restarts", "2"], 1),
        ("ex2", ["--props", "1,2"], 0),
    ])
    def test_one_b_per_run(self, docs, monkeypatch, name, argv, runs):
        calls = spy_restarts(monkeypatch)
        code, _, _ = cli("verify", "--pmf", docs[name], *argv, "--seed", "7")
        assert code == 0
        assert len(calls) == runs

    def test_chain_requires_seed(self, docs):
        code, _, err = cli("verify", "--pmf", docs["ex2"], "--chain")
        assert code == 2


class TestErrorPaths:
    def test_missing_file(self):
        code, _, err = cli("info", "--pmf", "/nonexistent/file.json")
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand(self):
        code, _, _ = cli("frobnicate")
        assert code == 2

    def test_invalid_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"variables": ["A"], "cardinalities": [2], "pmf": [0.9, 0.9]}')
        code, _, err = cli("info", "--pmf", str(bad))
        assert code == 1
        assert "NotNormalized" in err

    def test_nan_pmf_document_is_domain_error(self, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"variables": ["A"], "cardinalities": [2], "pmf": [NaN, 0.5]}')
        code, out, err = cli("info", "--pmf", str(bad))
        assert code == 1
        assert "NotNormalized" in err
        assert out == ""

    def test_nan_channel_document_is_domain_error(self, docs, tmp_path):
        # Example 1 has 8 joint outcomes; the first row holds a NaN.
        rows = ", ".join(["[NaN, 1.0]"] + ["[1.0, 0.0]"] * 7)
        bad = tmp_path / "nan.aux.json"
        bad.write_text('{"w_cardinality": 2, "rows": [' + rows + "]}")
        code, out, err = cli("region", "corner", "--pmf", docs["ex1"], "--aux", str(bad))
        assert code == 1
        assert "NotNormalized" in err
        assert out == ""

    def test_threads_option_is_gone(self, docs):
        code, out, _ = cli("--help")
        assert code == 0
        assert "--threads" not in out
        code, out, _ = cli("--threads", "1", "info", "--pmf", docs["ex1"])
        assert code == 2
        assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--pmf", "{ex2}", "--aux", "{wx0}", "--n", "0",
         "--slack", "0.25", "--trials", "10", "--seed", "7"),
        ("simulate", "--pmf", "{ex2}", "--aux", "{wx0}", "--n", "2",
         "--slack", "0.25", "--trials", "0", "--seed", "7"),
        ("region", "check", "--pmf", "{ex2}", "--r0", "-1", "--rk", "1,1,1",
         "--delta", "6", "--restarts", "1", "--seed", "3"),
        ("common-info", "--pmf", "{ex2}", "--method", "wyner", "--restarts", "0",
         "--seed", "7"),
        ("region", "sweep", "--pmf", "{ex2}", "--r0-grid", "-1", "--restarts", "1",
         "--seed", "5"),
        ("common-info", "--pmf", "{ex1}", "--method", "wyner", "--w-cardinality", "0",
         "--restarts", "1", "--seed", "7"),
        ("common-info", "--pmf", "{ex1}", "--method", "wyner", "--w-cardinality", "-2",
         "--restarts", "1", "--seed", "7"),
        ("region", "sweep", "--pmf", "{ex2}", "--r0-grid", "0,1", "--restarts", "-3",
         "--seed", "1"),
        ("region", "check", "--pmf", "{ex2}", "--r0", "1", "--rk", "1,1,1",
         "--delta", "6", "--restarts", "-3", "--seed", "3"),
        ("region", "check", "--pmf", "{ex2}", "--r0", "1", "--rk", "1,1,1",
         "--delta", "6", "--w-cardinality", "0", "--restarts", "2", "--seed", "3"),
        ("simulate", "--pmf", "{ex2}", "--aux", "{wx0}", "--n", "2",
         "--slack", "0.25", "--trials", "10", "--seed", "7",
         "--typicality-tolerance", "nan"),
        ("simulate", "--pmf", "{ex2}", "--aux", "{wx0}", "--n", "2",
         "--slack", "0.25", "--trials", "10", "--seed", "7",
         "--typicality-tolerance", "inf"),
        ("simulate", "--pmf", "{ex2}", "--aux", "{wx0}", "--n", "2",
         "--slack", "nan", "--trials", "10", "--seed", "7"),
        ("simulate", "--pmf", "{ex2}", "--aux", "{wx0}", "--n", "2",
         "--slack", "inf", "--trials", "10", "--seed", "7"),
        ("simulate", "--pmf", "{ex2}", "--aux", "{wx0}", "--n", "2",
         "--slack", "0.25", "--trials", "10", "--seed", "-1"),
        ("simulate", "--pmf", "{ex2}", "--aux", "{wx0}", "--n", "2",
         "--slack", "0.25", "--trials", "10", "--seed", "9223372036854775808"),
        ("region", "check", "--pmf", "{ex1}", "--r0", "nan", "--rk", "nan,nan,nan",
         "--delta", "0", "--restarts", "1", "--seed", "3"),
        ("region", "check", "--pmf", "{ex2}", "--r0", "1", "--rk", "1,1,1",
         "--delta", "nan", "--restarts", "1", "--seed", "3"),
        ("region", "sweep", "--pmf", "{ex2}", "--r0-grid", "0.5,nan", "--restarts", "1",
         "--seed", "5"),
        ("simulate", "--pmf", "{ex2}", "--aux", "{wx0}", "--n", "2", "--slack", "0.25",
         "--trials", "10", "--seed", "7", "--exact-equivocation",
         "--enumeration-limit", "-5"),
        ("simulate", "--pmf", "{ex2}", "--aux", "{wx0}", "--n", "2", "--slack", "0.25",
         "--trials", "10", "--seed", "7", "--exact-equivocation",
         "--enumeration-limit", "0"),
        ("region", "check", "--pmf", "{ex2}", "--r0", "1", "--rk", "1,1,1",
         "--delta", "6", "--aux", "{wx0}", "--restarts", "-3"),
        ("region", "check", "--pmf", "{ex2}", "--r0", "1", "--rk", "1,1,1",
         "--delta", "6", "--aux", "{wx0}", "--w-cardinality", "0"),
    ],
    ids=["n0", "trials0", "negative_r0", "restarts0", "negative_budget", "w_card0",
         "w_card_negative", "sweep_negative_restarts", "check_negative_restarts",
         "check_w_card0_certified_by_a_seed", "tolerance_nan", "tolerance_inf",
         "slack_nan", "slack_inf", "negative_seed", "seed_2_63", "check_nan_rates",
         "check_nan_delta", "sweep_nan_budget", "enumeration_limit_negative",
         "enumeration_limit0", "check_aux_negative_restarts", "check_aux_w_card0"],
)
def test_rejected_values_are_usage_errors(docs, argv):
    code, out, err = cli(*(arg.format(**docs) for arg in argv))
    assert code == 2
    assert err.startswith("usage error: ")
    assert out == ""


class TestParser:
    ARGVS = [
        ("--help",),
        ("simulate", "--help"),
        ("region", "check", "--help"),
        ("simulate", "--n", "x"),
        ("nope",),
        (),
    ]

    def test_built_once_per_process(self, docs, monkeypatch):
        cli("info", "--pmf", docs["ex1"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(3):
            assert cli("info", "--pmf", docs["ex1"])[0] == 0
            assert cli("simulate", "--help")[0] == 0
        assert built == []

    def test_prints_what_a_fresh_parser_prints(self):
        fresh = cli_module._build_parser.__wrapped__()
        for argv in self.ARGVS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with pytest.raises(SystemExit) as stop:
                    fresh.parse_args(list(argv))
            expected = (stop.value.code or 0, out.getvalue(), err.getvalue())
            assert cli(*argv) == expected, argv
            assert cli(*argv) == expected, argv


class TestDeterminism:
    def test_randomized_commands_byte_identical(self, docs):
        commands = [
            ("common-info", "--pmf", docs["ex2"], "--method", "wyner",
             "--w-cardinality", "3", "--restarts", "2", "--seed", "7"),
            ("region", "sweep", "--pmf", docs["ex2"], "--r0-grid", "0,1",
             "--restarts", "1", "--seed", "5", "--format", "csv"),
            ("simulate", "--pmf", docs["ex2"], "--aux", docs["wx0"],
             "--n", "3", "--slack", "0.25", "--trials", "150", "--seed", "7"),
        ]
        for argv in commands:
            first = cli(*argv)
            second = cli(*argv)
            assert first == second
            assert first[0] == 0
