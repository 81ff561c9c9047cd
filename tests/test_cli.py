import json
import math

import numpy as np
import pytest

from rmflab import rbound
from rmflab.cli import main

L1_PLANE = '{"kind":"lp","p":1,"dim":2}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def l1_basis_file(tmp_path):
    path = tmp_path / "l1basis.json"
    path.write_text(
        json.dumps(
            {"space": {"kind": "lp", "p": 1, "dim": 2}, "vectors": [[1, 0], [0, 1]]}
        )
    )
    return str(path)


@pytest.fixture
def samples_file(tmp_path):
    rng = np.random.default_rng(4)
    obj = {
        "space": {"kind": "lp", "p": 2, "dim": 2},
        "samples": [
            {
                "set": [rng.standard_normal(2).tolist() for _ in range(2)],
                "point": rng.standard_normal(2).tolist(),
            }
            for _ in range(4)
        ],
        "midpoints": [
            {
                "set": [rng.standard_normal(2).tolist()],
                "a": rng.standard_normal(2).tolist(),
                "b": rng.standard_normal(2).tolist(),
            }
        ],
    }
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestRandnorm:
    def test_l1_basis_moment(self, capsys, l1_basis_file):
        code, out, _ = run(capsys, "randnorm", "--vectors", l1_basis_file, "--p", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2.0, abs=1e-12)
        assert payload["mode"] == "exact"


class TestRbound:
    def test_bracket(self, capsys, l1_basis_file):
        code, out, _ = run(capsys, "rbound", "--vectors", l1_basis_file, "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == pytest.approx(math.sqrt(2), abs=1e-4)
        assert payload["upper"] == 2.0
        assert payload["mode"] == "optimized"

    def test_grid_mode(self, capsys, l1_basis_file):
        code, out, _ = run(
            capsys, "rbound", "--vectors", l1_basis_file, "--grid-step", "1e-3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "grid_certified"
        assert payload["sup_gap"] is not None

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "rbound", "--vectors", str(bad))
        assert code == 2
        assert "line" in err

    def test_schema_violation_exits_2_with_path(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"space": {"kind": "lp", "p": 0.5, "dim": 2}, "vectors": [[1, 0]]}))
        code, _, err = run(capsys, "rbound", "--vectors", str(bad))
        assert code == 2
        assert "$['space']" in err


class TestTypecotype:
    def test_l1_type2(self, capsys):
        code, out, _ = run(
            capsys,
            "typecotype",
            "--kind",
            "type",
            "--space",
            '{"kind":"lp","p":1,"dim":4}',
            "--exponent",
            "2",
            "--count",
            "4",
            "--seed",
            "0",
            "--restarts",
            "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2.0, abs=1e-6)

    def test_seed_mandatory(self, capsys):
        code, _, err = run(
            capsys,
            "typecotype",
            "--kind",
            "type",
            "--space",
            '{"kind":"lp","p":1,"dim":2}',
            "--exponent",
            "2",
            "--count",
            "2",
        )
        assert code == 2
        assert "seed" in err


class TestMaximalCommands:
    def test_maximal_csv_columns(self, capsys):
        code, out, _ = run(
            capsys,
            "maximal",
            "--space",
            '{"kind":"lp","p":2,"dim":2}',
            "--grid-exponent",
            "3",
            "--seed",
            "5",
            "--format",
            "csv",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "atom_index,mass,doob,rademacher_lower,rademacher_upper"
        assert len(out.splitlines()) == 9

    def test_rmf_ratio_constant_one(self, capsys, tmp_path):
        fn = tmp_path / "f.json"
        fn.write_text(
            json.dumps(
                {
                    "space": {"kind": "lp", "p": 2, "dim": 2},
                    "masses": [0.25, 0.25, 0.25, 0.25],
                    "values": [[1, 1], [1, 1], [1, 1], [1, 1]],
                }
            )
        )
        code, out, _ = run(capsys, "rmf-ratio", "--function", str(fn), "--p", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_rmf_ratio_searches_each_atom_column_once(self, capsys, monkeypatch):
        searched = []
        search = rbound.optimized_scalar_lower

        def counting(vectors, *args, **kwargs):
            searched.append(np.stack([v.coords for v in vectors]).tobytes())
            return search(vectors, *args, **kwargs)

        monkeypatch.setattr(rbound, "optimized_scalar_lower", counting)
        code, _, _ = run(
            capsys, "rmf-ratio", "--space", L1_PLANE, "--grid-exponent", "2",
            "--seed", "5", "--restarts", "2",
        )
        assert code == 0
        # the finest level of a dyadic grid is its atoms, so each of the
        # 4 atoms has a column of its own
        assert len(searched) == len(set(searched)) == 4


class TestReduce:
    def test_trace_fields(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--seed", "7", "--steps", "5", "--perturb"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_symdiff"] < 0.125
        assert payload["conditional_expectation_max_error"] <= 1e-12
        assert payload["rmf_ratio_gap"] <= 1e-10
        assert len(payload["dyadic_levels"]) == len(payload["approximation_symdiff"])

    def test_subsampled_pipeline_embeds(self, capsys):
        # dropping every other level forces the embedding stage to insert
        # intermediate splits, some of which are no longer dyadic
        code, out, _ = run(
            capsys, "reduce", "--seed", "1", "--steps", "6", "--subsample", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["haar_index_map"] == [0, 2, 4, 6]
        assert payload["max_symdiff"] < 0.125
        assert payload["conditional_expectation_max_error"] <= 1e-12

    def test_infeasible_grid_exits_contract(self, capsys):
        # seed 2 produces a block whose odd atom count cannot split
        # dyadically within the budget at this resolution
        code, _, err = run(
            capsys, "reduce", "--seed", "2", "--steps", "6", "--subsample", "2"
        )
        assert code == 1
        assert "grid of 2^" in err


class TestGundy:
    def test_batch_zero_violations(self, capsys):
        code, out, _ = run(
            capsys, "gundy", "--instances", "6", "--seed", "11", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("violations")
        assert len(lines) == 1 + 6 * 3
        assert all(line.endswith(",0") for line in lines[1:])

    def test_single_martingale_file(self, capsys, tmp_path):
        from rmflab.martingale import martingale_to_json, random_haar_martingale
        from rmflab.spaces import lp_space

        x = random_haar_martingale(lp_space(2, 2), 4, 5, seed=3)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(martingale_to_json(x)))
        code, out, _ = run(capsys, "gundy", "--martingale", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["total_violations"] == 0


class TestGoodLambda:
    def test_hilbert_batch(self, capsys):
        code, out, _ = run(
            capsys,
            "goodlambda",
            "--instances",
            "4",
            "--seed",
            "13",
            "--lambda-points",
            "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_inclusion_violations"] == 0
        assert payload["worst_transform_slack"] <= 1e-9


class TestWeakRmf:
    def test_hilbert_constant(self, capsys):
        code, out, _ = run(
            capsys, "weak-rmf", "--instances", "4", "--seed", "17"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["constant"] <= 1.0 + 1e-6


class TestSchemas:
    def test_schema_files_match_package(self):
        # the files under schema/ are the shipped copies of the package
        # schemas; they must never drift
        import pathlib

        from rmflab.schemas import ALL_SCHEMAS, SCHEMA_VERSION

        root = pathlib.Path(__file__).resolve().parents[1] / "schema" / SCHEMA_VERSION
        for name, schema in ALL_SCHEMAS.items():
            path = root / f"{name}.schema.json"
            assert path.exists(), path
            assert json.loads(path.read_text()) == schema


class TestEmptyGenerator:
    def test_empty_family_exits_zero_with_strict_json(self, capsys):
        for cmd in ("gundy", "weak-rmf", "goodlambda"):
            code, out, _ = run(capsys, cmd, "--instances", "0", "--seed", "1")
            assert code == 0
            payload = json.loads(out, parse_constant=pytest.fail)
            assert payload["rows"] == []


class TestConcave:
    def test_zero_candidate_large_c(self, capsys, samples_file):
        code, out, _ = run(
            capsys, "concave", "--samples", samples_file, "--candidate", "zero",
            "--c", "1e8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"]

    def test_penalty_candidate_flags_diagonal(self, capsys, samples_file):
        code, out, _ = run(
            capsys, "concave", "--samples", samples_file, "--candidate", "penalty",
            "--c", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["properties"]["majorizes_penalty"]["passed"]
        assert not payload["properties"]["diagonal_nonpositive"]["passed"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gundy", "--instances", "3", "--seed", "23", "--format", "csv"),
            ("goodlambda", "--instances", "2", "--seed", "23", "--lambda-points", "3"),
            ("weak-rmf", "--instances", "3", "--seed", "23"),
            ("reduce", "--seed", "23", "--perturb"),
            (
                "typecotype", "--kind", "cotype", "--space",
                '{"kind":"lp","p":"inf","dim":2}', "--exponent", "2",
                "--count", "2", "--seed", "23",
            ),
            (
                "maximal", "--space", L1_PLANE, "--grid-exponent", "2",
                "--seed", "23", "--restarts", "2",
            ),
            (
                "rmf-ratio", "--space", L1_PLANE, "--grid-exponent", "2",
                "--seed", "23", "--restarts", "2",
            ),
        ],
    )
    def test_identical_reruns(self, tmp_path, argv):
        out1 = tmp_path / "a.out"
        out2 = tmp_path / "b.out"
        assert main(list(argv) + ["--out", str(out1)]) == 0
        assert main(list(argv) + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_defaults_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 23, "instances": 3, "format": "csv"}))
        code1, out1, _ = run(capsys, "gundy", "--config", str(cfg))
        code2, out2, _ = run(
            capsys, "gundy", "--instances", "3", "--seed", "23", "--format", "csv"
        )
        assert code1 == code2 == 0
        assert out1 == out2
        # explicit flag beats the config file
        code3, out3, _ = run(capsys, "gundy", "--config", str(cfg), "--instances", "1")
        assert code3 == 0
        assert len(out3.splitlines()) == 1 + 1 * 3

    def test_bad_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(capsys, "gundy", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err
