import argparse
import csv
import hashlib
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import cli, optim, rbound
from rmflab.cli import build_parser, main

L1_PLANE = '{"kind":"lp","p":1,"dim":2}'
HILBERT_PLANE = '{"kind":"lp","p":2,"dim":2}'

DETERMINISM_ARGV = [
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
    (
        "reduce", "--seed", "23", "--steps", "2", "--subsample", "2",
        "--grid-exponent", "7", "--eps", "0.5",
    ),
    (
        "typecotype", "--kind", "cotype", "--space",
        '{"kind":"schatten","p":1,"rows":2,"cols":2}', "--exponent", "2",
        "--count", "2", "--restarts", "4", "--seed", "23",
    ),
]

# sha256 of each report as the row-dict renderer wrote it; the columnar
# renderer must reproduce every byte
GOLDEN_REPORTS = list(zip(DETERMINISM_ARGV, [
    "aa4bffff5ef79902d76c3724f65e498f545125a9b82c4e167b9b92c0bab5d430",
    "a8e67569b9abf97dbe7bed2947eb28e4add80db75865298dd770087d1f7be3a2",
    "10a5a09fe2710198de852cc1fad0dff49206368acff40c86befc838ab28ab98f",
    "be77676906e45b42149f5b580d491e81a6f11cc2d14c52191b4a4ca7b25a596c",
    "6b0026bac18b3a9f6f2bd9e3ef47ae390519bbf213d6520b7b0de01afcd0f49e",
    "b3c13e4ec5e828d5ba9299969815a5e96598a8449a7a646b01b56d9f6560a0ba",
    "051dbf9afb1d840792551d581f9cf31071d1419f2d687151f71c5af2585508c5",
    "3693ca2a3d4ddcbb988f03c4a58806da2e181984763fc73cd9d1730680d97b5f",
    "b0cd6e99eebfed4e5e93895b93dd0311adb65362584aab8775cf9546dcc6f4c2",
]))
GOLDEN_REPORTS += [
    (("maximal", "--space", HILBERT_PLANE, "--grid-exponent", "6", "--seed", "5"),
     "9cf6893230e59a82c6d0784cfb9832a3676a235dc0023e75d2d0a8aa6828909a"),
    (("maximal", "--space", HILBERT_PLANE, "--grid-exponent", "6", "--seed", "5",
      "--format", "csv"),
     "c06f2be78d94fcbf099d9a1206503154d8d3f9253ad763a549528c7438a60b80"),
    (("rmf-ratio", "--space", HILBERT_PLANE, "--grid-exponent", "6", "--seed", "5"),
     "cc5142f9bb12de0724c082f0348ea3ecfa0bf1e98a2d59017d60c4f325d699db"),
    (("maximal", "--space", HILBERT_PLANE, "--grid-exponent", "4", "--seed", "2",
      "--truncation", "2"),
     "32b3a965fe21573ee1c97ed89e0f4512ee745d9318625675f99458cd5da3a33f"),
    (("maximal", "--space", L1_PLANE, "--grid-exponent", "2", "--seed", "23",
      "--restarts", "2", "--format", "csv"),
     "173d23bef6ae85885702ef826c40e47fbac944783b20e2306114d876ea2e20c4"),
    (("gundy", "--instances", "3", "--seed", "23"),
     "d307aa36c34349e96916918291094f1a71ef2038a17086a53d30562214a9c2c0"),
    (("goodlambda", "--instances", "2", "--seed", "23", "--lambda-points", "3",
      "--format", "csv"),
     "02044c0563fde8bc8ec44a33ec8cddcc7a9c1e60899ee7fe09fb4bf9805ce49d"),
    (("goodlambda", "--space", L1_PLANE, "--instances", "2", "--grid-exponent", "3",
      "--steps", "4", "--seed", "7", "--lambda-points", "2", "--format", "csv"),
     "52859e00b2cb28cd830d5565a50b1322ed3b5d0b13cdd7ca63702029598c71a2"),
    (("goodlambda", "--instances", "0", "--seed", "1"),
     "f2eaffc9638558240bdcd18e84923103665b00dec4522e8e70baf78a3303537d"),
    (("weak-rmf", "--instances", "3", "--seed", "23", "--format", "csv"),
     "fc559fa59d563d662b229c5870dffb2a0a8b7c0fe98da3739f381eca8305b6a7"),
    (("weak-rmf", "--instances", "0", "--seed", "1"),
     "35d1f41c025ed4a19f2feb90dab1eaa5512a5c56987722b474c8bace8bc0eb50"),
    (("maximal", "--space", L1_PLANE, "--grid-exponent", "6", "--truncation", "2",
      "--seed", "23", "--restarts", "2", "--format", "csv"),
     "bd94a590d58c04b47e3d38a778038d5332af59c725cc1663b1b4bfc418177f21"),
    # the flat part (h_variation > 0) and heights no atom reaches (sigma = infinity)
    (("gundy", "--space", '{"kind":"lp","p":2,"dim":3}', "--instances", "4",
      "--lambdas", "0.01,0.25,1,4,100", "--seed", "5", "--format", "csv"),
     "92d7d51cdd02ef7435c5ce88251beb8a89b334c91076ebb8a8b1697a4d6b3350"),
    (("gundy", "--space", '{"kind":"schatten","p":1,"rows":2,"cols":2}', "--instances", "2",
      "--grid-exponent", "4", "--steps", "5", "--seed", "9", "--format", "csv"),
     "f00aabc83335746513b214697c085fb440999d6af975afaa4a8305fd8c621a9e"),
    # pinned while the good-lambda window found its stopping times one level at a time
    (("goodlambda", "--space", '{"kind":"schatten","p":1,"rows":2,"cols":2}', "--instances", "2",
      "--grid-exponent", "3", "--steps", "4", "--seed", "9", "--lambda-points", "3",
      "--restarts", "2", "--format", "csv"),
     "cb7cccbc9e46cde52819740d04f168dcf2da3a2691f8bc607553c90893b652c4"),
    (("goodlambda", "--space", '{"kind":"lp","p":"inf","dim":2}', "--instances", "3",
      "--grid-exponent", "3", "--steps", "1", "--seed", "4", "--lambda-points", "4",
      "--restarts", "2"),
     "5e37668096e1c9e844eb24d98a089a9c299331c40280fec4a25182621b7249ba"),
    # empty tables ("rows": []) and a non-finite payload float written as "-inf"
    (("goodlambda", "--instances", "0", "--seed", "23"),
     "f2eaffc9638558240bdcd18e84923103665b00dec4522e8e70baf78a3303537d"),
    (("gundy", "--instances", "0", "--seed", "23"),
     "e193eb2f9ef700106760dd301af34574a1b379ddcf88345e1824127942a20f28"),
    # the grid bench's shapes: 2^11 JSON rows and 2^12 CSV rows, each with a constant mass column
    (("rmf-ratio", "--space", HILBERT_PLANE, "--grid-exponent", "11", "--seed", "5"),
     "44dc00f86c15853ee8559549a9bc3432bbf33ffac0f35c4503af278ba66fe923"),
    (("maximal", "--space", HILBERT_PLANE, "--grid-exponent", "12", "--seed", "5", "--format", "csv"),
     "5293938a1ddc5444964655a9a8db536836a70774efd78e856bafe237e069a0ad"),
]


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

    @pytest.mark.parametrize("kind", ["type", "cotype"])
    @pytest.mark.parametrize(
        "space",
        ['{"kind":"lp","p":2,"dim":3}', '{"kind":"schatten","p":2,"rows":2,"cols":2}'],
        ids=["lp2", "schatten2"],
    )
    def test_hilbert_constant_is_exact_past_the_threshold(self, capsys, space, kind):
        code, out, _ = run(
            capsys, "typecotype", "--kind", kind, "--space", space, "--exponent", "2", "--count", "4",
            "--exact-threshold", "2", "--mc-samples", "50", "--restarts", "2", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "exact"
        assert abs(payload["value"] - 1.0) <= 1e-15

    def test_monte_carlo_mode_past_the_threshold(self, capsys):
        code, out, _ = run(
            capsys, "typecotype", "--kind", "type", "--space", L1_PLANE, "--exponent", "2", "--count", "3",
            "--exact-threshold", "2", "--mc-samples", "50", "--restarts", "2", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["mode"] == "monte_carlo"

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
    @pytest.mark.parametrize("command", ["maximal", "rmf-ratio"])
    def test_space_or_function_mandatory(self, capsys, command):
        code, out, err = run(capsys, command, "--seed", "1")
        assert code == 2
        assert "--space" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", ["maximal", "rmf-ratio"])
    def test_negative_truncation_exits_2(self, capsys, command):
        code, out, err = run(
            capsys, command, "--space", HILBERT_PLANE, "--grid-exponent", "3",
            "--truncation", "-1", "--seed", "1",
        )
        assert code == 2
        assert "--truncation must be >= 0" in err and "Traceback" not in err
        assert out == ""

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
        search = rbound._sphere_lower

        def counting(sets, *args, **kwargs):
            searched.extend(rows.tobytes() for rows in sets)
            return search(sets, *args, **kwargs)

        monkeypatch.setattr(rbound, "_sphere_lower", counting)
        code, _, _ = run(
            capsys, "rmf-ratio", "--space", L1_PLANE, "--grid-exponent", "2",
            "--seed", "5", "--restarts", "2",
        )
        assert code == 0
        # the finest level of a dyadic grid is its atoms, so each of the
        # 4 atoms has a column of its own
        assert len(searched) == len(set(searched)) == 4

    def test_rmf_ratio_climbs_once_per_set_size(self, capsys, monkeypatch):
        sizes, ascents = [], []
        search, ascend = rbound._sphere_lower, optim.ascend

        def sizing(sets, *args, **kwargs):
            sizes.append(sets.shape[1])
            return search(sets, *args, **kwargs)

        def counting(*args, **kwargs):
            ascents.append(1)
            return ascend(*args, **kwargs)

        monkeypatch.setattr(rbound, "_sphere_lower", sizing)
        monkeypatch.setattr(optim, "ascend", counting)
        code, _, _ = run(
            capsys, "rmf-ratio", "--space", L1_PLANE, "--grid-exponent", "2",
            "--seed", "5", "--restarts", "2",
        )
        assert code == 0
        # 4 atoms, but one kernel call and one ascent per number of distinct rows
        assert len(sizes) == len(set(sizes)) == len(ascents) < 4


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

    def test_too_fine_isomorphism_exits_at_once(self, capsys):
        # 16 replayed splits would need a 2^27 grid for the isomorphism
        start = time.perf_counter()
        code, _, err = run(
            capsys, "reduce", "--seed", "1", "--grid-exponent", "8", "--steps", "16",
            "--perturb",
        )
        assert time.perf_counter() - start < 5.0
        assert code == 1
        # a grid over the cap is not offered as one that suffices
        assert err.rstrip().endswith("the equivalent filtration needs a 2^27 grid")

    @staticmethod
    def flag_exit(capsys, tmp_path, flag, value):
        """Exit code and stderr of reduce given ``value`` by the flag, then by the config."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: float(value) if flag == "--eps" else int(value)}))
        out = []
        for extra in ([f"{flag}={value}"], ["--config", str(cfg)]):
            try:
                code = main(["reduce", "--seed", "1", *extra])
            except SystemExit as exc:
                code = exc.code
            out.append((code, capsys.readouterr().err))
        return out

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
    def test_nonpositive_eps_exits_contract(self, capsys, tmp_path, eps):
        # the flag is read as the config schema reads it: a finite number > 0
        for code, err in self.flag_exit(capsys, tmp_path, "--eps", eps):
            assert code == 2
            # json writes nan and inf as NaN and Infinity, which the flag reads back
            assert "argument --eps: " in err and "is not a finite number > 0" in err or "$['eps']" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("subsample", ["0", "-1"])
    def test_subsample_below_one_exits_contract(self, capsys, tmp_path, subsample):
        for code, err in self.flag_exit(capsys, tmp_path, "--subsample", subsample):
            assert code == 2
            assert f"argument --subsample: '{subsample}' is not an integer >= 1" in err or "$['subsample']" in err
            assert "Traceback" not in err


class TestGridCap:
    @pytest.mark.parametrize("k", ["23", "40"])
    @pytest.mark.parametrize(
        "subcommand", ["maximal", "rmf-ratio", "reduce", "gundy", "goodlambda", "weak-rmf"]
    )
    def test_grid_over_cap_exits_before_allocating(self, capsys, subcommand, k):
        start = time.perf_counter()
        code, out, err = run(
            capsys, subcommand, "--space", HILBERT_PLANE, "--grid-exponent", k, "--seed", "1"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.rstrip().endswith(
            f"a 2^{k}-atom grid is over the cap of 2^22 atoms (filtration.MAX_GRID_EXPONENT = 22)"
        )


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

    @staticmethod
    def _shift(level, shift):
        def edit(obj):
            values = obj["levels"][level]
            for row in values[:1] if shift == "atom" else values:
                row[0] += 1.0

        return edit

    @staticmethod
    def _relabel(level, atom, label):
        def edit(obj):
            obj["filtration"]["levels"][level][atom] = label

        return edit

    @staticmethod
    def _drop_label(obj):
        del obj["filtration"]["levels"][2][-1]

    @pytest.mark.parametrize(
        "edit, code, message",
        [
            # one atom moved: level 1 is no longer constant on its blocks
            (_shift(1, "atom"), 1, "numerical contract violated: level 1 is not measurable at its level"),
            # every atom moved: level 0 stays constant but no longer the mean
            (_shift(0, "all"), 1, "numerical contract violated: martingale property fails between 0 and 1"),
            # labels are int64; 10^23 stops at the schema with its path
            (_relabel(5, 3, 10**23), 2, "schema violated at $['filtration']['levels'][5][3]"),
            (_drop_label, 1, "numerical contract violated: label count must match atom count"),
            # atom 0 alone in level 0, while level 1 holds atoms 0-7 in one block
            (_relabel(0, 0, 1), 1, "numerical contract violated: each level must refine its predecessor"),
        ],
        ids=["unmeasurable-level", "broken-property", "label-over-int64", "ragged-level", "non-refining-level"],
    )
    def test_martingale_file_checked_where_it_enters(self, capsys, tmp_path, edit, code, message):
        from rmflab.martingale import martingale_to_json, random_haar_martingale
        from rmflab.spaces import lp_space

        obj = martingale_to_json(random_haar_martingale(lp_space(2, 2), 4, 5, seed=3))
        edit(obj)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        got, out, err = run(capsys, "gundy", "--martingale", str(path))
        assert got == code and out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, entry",
        [
            (["--lambdas", "abc"], "abc"),
            (["--lambdas", "1,,2"], ""),
            (["--lambdas", "nan"], "nan"),
            (["--lambdas=-1,1"], "-1"),
            (["--lambdas", "0,1"], "0"),
            (["--lambdas", "inf"], "inf"),
        ],
        ids=["word", "empty-entry", "nan", "negative", "zero", "inf"],
    )
    def test_bad_lambdas_exit_2_naming_the_entry(self, capsys, tmp_path, flag, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambdas": flag[-1].removeprefix("--lambdas=")}))
        for argv in (flag, ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(["gundy", "--instances", "1", "--seed", "3", *argv])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --lambdas: entry {entry!r} is not a finite number > 0" in err
            assert "Traceback" not in err


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

    def test_one_kernel_call_for_prefixes(self, capsys, monkeypatch):
        calls = []
        kernel = rbound.atomwise_rbound

        def counting(stack, *args, **kwargs):
            calls.append(stack.shape[1])
            return kernel(stack, *args, **kwargs)

        monkeypatch.setattr(rbound, "atomwise_rbound", counting)
        code, out, _ = run(
            capsys, "goodlambda", "--space", L1_PLANE, "--instances", "2", "--grid-exponent", "3",
            "--steps", "3", "--lambda-points", "3", "--seed", "11", "--restarts", "2",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 6
        # every prefix of both instances at one atom per block of the last
        # level (3 prefixes x 4 blocks each); no transform has an atom in
        # the event of (a), so the transforms search nothing
        assert all(row["lhs_probability"] == 0 for row in rows)
        assert calls == [2 * 3 * 4]

    def test_no_instances(self, capsys, monkeypatch):
        monkeypatch.setattr(rbound, "atomwise_rbound", lambda *a, **k: pytest.fail("kernel called"))
        code, out, _ = run(capsys, "goodlambda", "--instances", "0", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == []
        assert payload["worst_transform_slack"] == "-inf"
        assert payload["total_inclusion_violations"] == 0


class TestWeakRmf:
    def test_hilbert_constant(self, capsys):
        code, out, _ = run(
            capsys, "weak-rmf", "--instances", "4", "--seed", "17"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["constant"] <= 1.0 + 1e-6


class TestFlagDomains:
    """Numbers and counts outside a flag's domain exit 2 naming the flag,
    given as the flag or through the config file."""

    @staticmethod
    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    @pytest.mark.parametrize(
        "subcommand, flag, value",
        [
            ("goodlambda", "--beta", "nan"),
            ("goodlambda", "--beta", "inf"),
            ("goodlambda", "--delta", "nan"),
            ("goodlambda", "--scale", "inf"),
            ("weak-rmf", "--beta", "nan"),
            ("weak-rmf", "--delta", "inf"),
            ("weak-rmf", "--scale", "nan"),
            ("gundy", "--scale", "inf"),
            ("maximal", "--scale", "nan"),
            ("rmf-ratio", "--scale", "inf"),
        ],
    )
    def test_non_finite_number(self, capsys, tmp_path, subcommand, flag, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: float(value)}))
        for argv in ([f"{flag}={value}"], ["--config", str(cfg)]):
            assert self.exit_code([subcommand, "--space", HILBERT_PLANE, "--seed", "1", *argv]) == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: " in err and "is not a finite number" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "subcommand, flag, value, minimum",
        [
            ("gundy", "--instances", -2, 0),
            ("weak-rmf", "--instances", -3, 0),
            ("goodlambda", "--instances", -1, 0),
            ("goodlambda", "--lambda-points", -3, 1),
            ("goodlambda", "--lambda-points", 0, 1),
            ("goodlambda", "--steps", 0, 1),
            ("goodlambda", "--steps", -1, 1),
            ("rbound", "--restarts", -1, 0),
            ("rbound", "--exact-threshold", 0, 1),
            ("rbound", "--mc-samples", 0, 1),
            ("maximal", "--restarts", -2, 0),
            ("typecotype", "--exact-threshold", -1, 1),
            ("randnorm", "--mc-samples", -5, 1),
            ("gundy", "--mc-samples", 0, 1),
            ("rbound", "--multiplicity", 0, 1),
            ("typecotype", "--count", 0, 1),
            ("reduce", "--steps", -1, 0),
            ("gundy", "--steps", -1, 0),
            ("weak-rmf", "--steps", -1, 0),
        ],
    )
    def test_count_below_its_minimum(self, capsys, tmp_path, subcommand, flag, value, minimum):
        assert self.exit_code([subcommand, "--seed", "1", f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: '{value}' is not an integer >= {minimum}" in err
        # through the config the schema stops the counts it bounds, the flag the rest
        key = flag[2:].replace("-", "_")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert self.exit_code([subcommand, "--seed", "1", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err or f"$['{key}']" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "abc"])
    def test_tol_is_a_finite_number_above_zero(self, capsys, tmp_path, value):
        argv = ["rmf-ratio", "--space", '{"kind":"lp","p":1,"dim":2}', "--grid-exponent", "3",
                "--seed", "1", "--restarts", "2"]
        assert self.exit_code([*argv, f"--tol={value}"]) == 2
        err = capsys.readouterr().err
        assert f"argument --tol: '{value}' is not a finite number > 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc"])
    def test_grid_step_is_a_finite_number_above_zero(self, capsys, tmp_path, l1_basis_file, value):
        argv = ["rbound", "--vectors", l1_basis_file]
        assert self.exit_code([*argv, f"--grid-step={value}"]) == 2
        err = capsys.readouterr().err
        assert f"argument --grid-step: '{value}' is not a finite number > 0" in err
        assert "Traceback" not in err
        # json writes nan and inf as NaN and Infinity, which the flag reads back
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_step": value if value == "abc" else float(value)}))
        assert self.exit_code([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "argument --grid-step: " in err or "$['grid_step']" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
    def test_tol_through_config(self, capsys, tmp_path, value):
        # json reads NaN, which the schema's exclusiveMinimum lets through
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": value}))
        assert self.exit_code(["maximal", "--space", HILBERT_PLANE, "--seed", "1", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "argument --tol: " in err or "$['tol']" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "subcommand", ["maximal", "rmf-ratio", "reduce", "gundy", "goodlambda", "weak-rmf"]
    )
    @pytest.mark.parametrize("value", [-1, 0])
    def test_grid_exponent_at_least_one(self, capsys, tmp_path, subcommand, value):
        argv = [subcommand, "--space", HILBERT_PLANE, "--instances", "1", "--seed", "1"]
        if subcommand in ("maximal", "rmf-ratio", "reduce"):
            del argv[3:5]
        assert self.exit_code([*argv, f"--grid-exponent={value}"]) == 2
        err = capsys.readouterr().err
        assert f"argument --grid-exponent: '{value}' is not an integer >= 1" in err
        assert "Traceback" not in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_exponent": value}))
        assert self.exit_code([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "argument --grid-exponent: " in err or "$['grid_exponent']" in err
        assert "Traceback" not in err

    def test_goodlambda_steps_zero_through_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 0}))
        assert self.exit_code(["goodlambda", "--seed", "1", "--instances", "1", "--config", str(cfg)]) == 2
        assert "argument --steps: '0' is not an integer >= 1" in capsys.readouterr().err

    def test_non_finite_numpy_float_renders_as_a_float(self, capsys):
        # the Doob constant at p = 1 is infinite, so is the strong constant
        code, out, _ = run(capsys, "weak-rmf", "--p", "1", "--instances", "1", "--seed", "1")
        assert code == 0
        assert json.loads(out)["strong_constant"] == "inf"
        rendered = cli._render_json({"x": [np.float64("nan"), -np.float64("inf")]})
        assert rendered == '{\n  "x": [\n    "nan",\n    "-inf"\n  ]\n}\n'


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

    def test_one_validator_per_schema(self, monkeypatch):
        import jsonschema

        from rmflab import schemas

        built = []
        real = jsonschema.Draft202012Validator

        def counting(schema):
            built.append(schema)
            return real(schema)

        monkeypatch.setattr(jsonschema, "Draft202012Validator", counting)
        schemas._validator.cache_clear()
        try:
            schemas.validate({"kind": "lp", "p": 1, "dim": 2}, "space")
            with pytest.raises(schemas.SchemaViolation, match=r"^<input>: space schema violated at \$: "):
                schemas.validate({"kind": "lp", "p": 1, "dim": 0}, "space")
        finally:
            schemas._validator.cache_clear()
        assert built == [schemas.SPACE_SCHEMA]


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

    @staticmethod
    def _write(tmp_path, samples, midpoints=None):
        obj = {"space": {"kind": "lp", "p": 1, "dim": 2}, "samples": samples}
        if midpoints is not None:
            obj["midpoints"] = midpoints
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_empty_set_sample(self, capsys, tmp_path):
        # V(set, t) = -c ||t||^2 and V({t}, t) = (1 - c) ||t||^2: at c = 1
        # adjoining a unit point moves the penalty by 1
        path = self._write(tmp_path, [{"set": [], "point": [1.0, 0.0]}])
        code, out, _ = run(
            capsys, "concave", "--samples", path, "--candidate", "penalty", "--c", "1"
        )
        assert code == 0
        props = json.loads(out)["properties"]
        assert props["absorbs_point"] == {"passed": False, "worst_slack": 1.0}
        assert props["majorizes_penalty"] == {"passed": True, "worst_slack": 0.0}
        assert props["diagonal_nonpositive"] == {"passed": True, "worst_slack": 0.0}

    @pytest.mark.parametrize("candidate", ["zero", "penalty"])
    def test_no_samples(self, capsys, tmp_path, monkeypatch, candidate):
        monkeypatch.setattr(rbound, "atomwise_rbound", lambda *a, **k: pytest.fail("kernel called"))
        path = self._write(tmp_path, [])
        code, out, _ = run(
            capsys, "concave", "--samples", path, "--candidate", candidate, "--c", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"]
        assert all(prop["worst_slack"] == 0.0 for prop in payload["properties"].values())

    def test_climbs_once_per_set_size_per_batch(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(21)
        path = self._write(
            tmp_path,
            [
                {"set": rng.standard_normal((2, 2)).tolist(),
                 "point": rng.standard_normal(2).tolist()}
                for _ in range(3)
            ],
            [{"set": [[0.5, 1.0]], "a": [1.0, 0.0], "b": [0.0, 2.0]}],
        )
        batches, ascents = [], []
        kernel, search, ascend = rbound.atomwise_rbound, rbound._sphere_lower, optim.ascend

        def batching(*args, **kwargs):
            batches.append([])
            return kernel(*args, **kwargs)

        def sizing(sets, *args, **kwargs):
            batches[-1].append(sets.shape[1])
            return search(sets, *args, **kwargs)

        def counting(*args, **kwargs):
            ascents.append(1)
            return ascend(*args, **kwargs)

        monkeypatch.setattr(rbound, "atomwise_rbound", batching)
        monkeypatch.setattr(rbound, "_sphere_lower", sizing)
        monkeypatch.setattr(optim, "ascend", counting)
        code, _, _ = run(
            capsys, "concave", "--samples", path, "--candidate", "penalty", "--c", "1",
            "--seed", "3", "--restarts", "2",
        )
        assert code == 0
        # the candidate's batch (sets of 2 and 3 rows); the penalty candidate's
        # answers at (set, point) are the sample penalties, so nothing is searched twice
        assert batches == [[2, 3]]
        assert len(ascents) == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv", DETERMINISM_ARGV)
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


def strict_json_reference(obj):
    """A report as the renderer wrote it before: non-finite floats replaced
    by their ``float.__repr__`` text, then json's indent=2 encoder."""

    def sanitize(x):
        if isinstance(x, dict):
            return {k: sanitize(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [sanitize(v) for v in x]
        if isinstance(x, float) and not math.isfinite(x):
            return float.__repr__(x)
        return x

    return json.dumps(sanitize(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


JSON_TEXT = st.text(alphabet=st.sampled_from('[]{}"\\,: abc\n\t\x00\u00e9\u20ac\U0001f600'), max_size=6)
JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324]),
)
JSON_SCALAR_VALUES = st.one_of(
    st.integers(), st.booleans(), st.none(), JSON_FLOATS, JSON_FLOATS.map(np.float64), JSON_TEXT, st.text(max_size=4)
)
JSON_PAYLOADS = st.recursive(
    JSON_SCALAR_VALUES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=5),
    ),
    max_leaves=40,
)


class TestPayloadRenderer:
    @settings(max_examples=400, deadline=None)
    @given(JSON_PAYLOADS)
    def test_matches_the_indent_encoder(self, payload):
        assert cli._render_json(payload) == strict_json_reference(payload)

    @pytest.mark.parametrize("payload", [
        {}, [], (), {"a": []}, {"a": {}}, [[], {}, ()], {"x": [1.5, math.nan, "inf", None, True]},
        {"k": [[1, 2], [3, [4, -math.inf]]], "\u00e9": ["[", "{", '"', "\\"]},
    ])
    def test_edge_shapes(self, payload):
        assert cli._render_json(payload) == strict_json_reference(payload)


# a NaN whose payload differs from float("nan")'s: bit-distinct, same text
OTHER_NAN = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
TABLE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, OTHER_NAN, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.0**-1022, 1e300, -1e-300]),
)
TABLE_TEXT = st.text(alphabet=st.sampled_from('"\\,; ab\n\u00e9\u20ac\U0001f600'), max_size=6)
COLUMN_NAMES = ["atom_index", "mass", "doob", "mode", "lambda", "a", "b_2", "z"]


@st.composite
def tables(draw):
    """Columns of one row count: ints, floats (constant, mixed +-0.0, non-finite,
    subnormal), strings, and copies of an earlier column."""
    n = draw(st.sampled_from([0, 1, 63, 64, 65, 300]))
    # two columns at least: csv.writer quotes a row holding one empty field
    names = draw(st.lists(st.sampled_from(COLUMN_NAMES), min_size=2, max_size=6, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = {}
    for name in names:
        kind = draw(st.sampled_from(["int", "float", "constant", "zeros", "string", "copy"]))
        if kind == "copy" and table:
            table[name] = table[draw(st.sampled_from(sorted(table)))].copy()
            continue
        if kind == "int":
            pool = draw(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=8))
        elif kind == "string":
            pool = draw(st.lists(TABLE_TEXT, min_size=1, max_size=8))
        elif kind == "constant":
            pool = [draw(TABLE_FLOATS)]
        elif kind == "zeros":
            pool = [0.0, -0.0]
        else:
            pool = draw(st.lists(TABLE_FLOATS, min_size=1, max_size=8))
        table[name] = np.array(pool)[rng.integers(len(pool), size=n)]
    return table


class TestTableRenderer:
    """Column renderers against the row-dict path: sanitized json.dumps and csv.writer."""

    @settings(max_examples=150, deadline=None)
    @given(tables(), st.dictionaries(JSON_TEXT, JSON_SCALAR_VALUES, max_size=3))
    def test_matches_the_row_dict_reference(self, table, payload):
        rows = [dict(zip(table, values)) for values in zip(*(c.tolist() for c in table.values()))]
        assert cli._render_json(payload, table) == strict_json_reference({**payload, "rows": rows})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table)
        writer.writerows(row.values() for row in rows)
        assert cli._render_csv(table) == buf.getvalue()

    @pytest.mark.parametrize("n", [63, 64, 65, 300])
    def test_constant_and_signed_zero_columns(self, n):
        table = {
            "mass": np.full(n, 2.0**-11),
            "zero": np.zeros(n),
            "signed": np.where(np.arange(n) == n - 1, -0.0, 0.0),
            "nan": np.full(n, math.nan),
        }
        json_text, csv_text = cli._render_json({}, table), cli._render_csv(table)
        assert json_text.count('"mass": 0.00048828125,') == n
        assert json_text.count('"signed": -0.0') == 1 and json_text.count('"signed": 0.0') == n - 1
        assert json_text.count('"nan": "nan"') == n
        assert csv_text.splitlines()[1:] == ["0.00048828125,0.0,0.0,nan"] * (n - 1) + [
            "0.00048828125,0.0,-0.0,nan"
        ]


class TestGoldenReports:
    @pytest.mark.parametrize(
        "argv,digest", GOLDEN_REPORTS, ids=[f"{a[0]}-{i}" for i, (a, _) in enumerate(GOLDEN_REPORTS)]
    )
    def test_report_bytes(self, tmp_path, argv, digest):
        out = tmp_path / "report.out"
        assert main(list(argv) + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_martingale_file_report_bytes(self, tmp_path):
        from rmflab.martingale import martingale_to_json, random_haar_martingale
        from rmflab.spaces import lp_space

        path = tmp_path / "m.json"
        path.write_text(json.dumps(martingale_to_json(random_haar_martingale(lp_space(2, 2), 4, 5, seed=3))))
        out = tmp_path / "report.out"
        assert main(["gundy", "--martingale", str(path), "--out", str(out)]) == 0
        digest = "ed7f5985f74868a308e9c31de6a13c91901bcedcfc769a3135dd9ff120cbce40"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_randnorm_report_past_one_chunk(self, tmp_path):
        # 17 vectors: the exact moment sums four chunks of 2^14 sign patterns
        vectors = np.round(np.random.default_rng(17).standard_normal((17, 3)), 6).tolist()
        path = tmp_path / "vectors.json"
        path.write_text(json.dumps({"space": {"kind": "lp", "p": 1, "dim": 3}, "vectors": vectors}))
        out = tmp_path / "report.out"
        assert main(["randnorm", "--vectors", str(path), "--p", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["samples"] == 1 << 16
        digest = "8b15a7e6b40a3fafc169b023f4e91c21aa99552173571904cde813b828f8ca39"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_non_finite_column_renders_as_row_dicts_did(self):
        # 8 rows are formatted cell by cell, 64 once per distinct value
        for repeats in (1, 8):
            column = np.tile([math.inf, -math.inf, math.nan, -0.0, 0.0, 0.1, 1e300, 2.0**-1074], repeats)
            table = {
                "atom_index": np.arange(column.size),
                "mass": np.full(column.size, 0.125),
                "value": column,
                "copy": column.copy(),
                "mode": np.array(["optimized", "a,b", 'q"uote', "optimized"] * 2 * repeats),
            }
            payload = {"subcommand": "test", "bound": math.inf, "nested": {"x": -math.inf}}
            rows = [dict(zip(table, values)) for values in zip(*(c.tolist() for c in table.values()))]

            # the path the reports took before columns: _sanitize, json.dumps, csv.writer
            def sanitize(obj):
                if isinstance(obj, dict):
                    return {k: sanitize(v) for k, v in obj.items()}
                if isinstance(obj, (list, tuple)):
                    return [sanitize(v) for v in obj]
                if isinstance(obj, float) and not math.isfinite(obj):
                    return repr(obj)
                return obj

            want_json = json.dumps(
                sanitize({**payload, "rows": rows}), sort_keys=True, indent=2, allow_nan=False
            ) + "\n"
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(rows[0].keys())
            writer.writerows(row.values() for row in rows)

            got_json = cli._render_json(payload, table)
            assert got_json == want_json
            assert '"value": "inf"' in got_json and '"value": -0.0' in got_json
            assert '"value": "nan"' in got_json and '"value": "-inf"' in got_json
            got_csv = cli._render_csv(table)
            assert got_csv == buf.getvalue()
            assert ",inf,inf," in got_csv and ",nan,nan," in got_csv and ",-0.0,-0.0," in got_csv
            assert cli._render_json(payload, {k: c[:0] for k, c in table.items()}) == json.dumps(
                sanitize({**payload, "rows": []}), sort_keys=True, indent=2
            ) + "\n"


class TestConfigFlags:
    """Config entries are parsed as the flags they name."""

    def config(self, tmp_path, obj):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_space_object_matches_flag(self, capsys, tmp_path):
        cfg = self.config(tmp_path, {"space": {"kind": "lp", "p": 1, "dim": 2}})
        common = ("--instances", "2", "--seed", "3")
        code1, out1, _ = run(capsys, "gundy", "--config", cfg, *common)
        code2, out2, _ = run(capsys, "gundy", "--space", L1_PLANE, *common)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_vectors_satisfies_required_flag(self, capsys, tmp_path, l1_basis_file):
        cfg = self.config(tmp_path, {"vectors": l1_basis_file, "seed": 1})
        code1, out1, _ = run(capsys, "rbound", "--config", cfg)
        code2, out2, _ = run(capsys, "rbound", "--vectors", l1_basis_file, "--seed", "1")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_number_takes_the_flag_type(self, capsys, tmp_path):
        cfg = self.config(tmp_path, {"beta": 4})
        common = ("--instances", "1", "--seed", "2", "--lambda-points", "2")
        code1, out1, _ = run(capsys, "goodlambda", "--config", cfg, *common)
        code2, out2, _ = run(capsys, "goodlambda", "--beta", "4", *common)
        assert code1 == code2 == 0
        assert out1 == out2
        assert '"beta": 4.0' in out1

    def test_key_the_subcommand_lacks_is_ignored(self, capsys, tmp_path):
        cfg = self.config(tmp_path, {"vectors": "absent.json", "seed": 3, "instances": 2})
        code1, out1, _ = run(capsys, "gundy", "--config", cfg)
        code2, out2, _ = run(capsys, "gundy", "--seed", "3", "--instances", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bad_choice_exits_2(self, capsys, tmp_path):
        cfg = self.config(tmp_path, {"kind": "neither"})
        with pytest.raises(SystemExit) as exc:
            main(["typecotype", "--config", cfg, "--space", L1_PLANE,
                  "--exponent", "2", "--count", "2", "--seed", "1"])
        assert exc.value.code == 2
        assert "--kind" in capsys.readouterr().err

    @pytest.mark.parametrize("form", [["--config={}"], ["--conf", "{}"]], ids=["equals", "abbrev"])
    def test_equals_and_abbreviated_forms_load_the_file(self, capsys, tmp_path, form):
        cfg = self.config(tmp_path, {"instances": 1, "seed": 3})
        code1, out1, _ = run(capsys, "gundy", *(token.format(cfg) for token in form))
        code2, out2, _ = run(capsys, "gundy", "--instances", "1", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [["gundy", "--config="], ["gundy", "--config", "missing.json"],
         ["rbound", "--vectors", "missing.json", "--seed", "1"]],
        ids=["empty", "missing-config", "missing-vectors"],
    )
    def test_unreadable_file_is_a_schema_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "No such file" in err and "Traceback" not in err

    def test_last_config_flag_wins(self, capsys, tmp_path):
        first = self.config(tmp_path, {"instances": 1, "seed": 3})
        last = tmp_path / "last.json"
        last.write_text(json.dumps({"instances": 1, "seed": 4}))
        code1, out1, _ = run(capsys, "gundy", "--config", first, "--config", str(last))
        code2, out2, _ = run(capsys, "gundy", "--instances", "1", "--seed", "4")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_exact_flag_is_not_read_as_config(self, capsys, samples_file):
        code, out, _ = run(capsys, "concave", "--samples", samples_file, "--c", "2.5")
        assert code == 0
        assert json.loads(out)["c"] == 2.5

    def test_one_parser_per_process(self, capsys, tmp_path, monkeypatch):
        seen = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            seen.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        build_parser.cache_clear()
        cfg = self.config(tmp_path, {"seed": 1, "instances": 1})
        assert run(capsys, "gundy", "--config", cfg)[0] == 0
        assert run(capsys, "weak-rmf", "--instances", "1", "--seed", "1")[0] == 0
        assert build_parser.cache_info().misses == 1
        assert len(seen) == 2 and all(p is build_parser() for p in seen)
