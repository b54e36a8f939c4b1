import argparse
import csv
import json
import re
import shlex
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from ordmatch import DistributionSpec, Instance, MechanismSpec, analytics, estimate_distortion
from ordmatch import cli, estimator, mechanisms, opt
from ordmatch.cli import main


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return [row for row in csv.reader(f) if not row[0].startswith("#")]


def refuse(*args, **kwargs):
    raise AssertionError("this path must not be taken")


BASE_RUN = {
    "instance": {"quotas": [1] * 10},
    "distribution": {"name": "iid-uniform01"},
    "mechanism": {"name": "rs"},
    "trials": 100_000,
    "seed": 7,
}


class TestRun:
    def test_single_agent_distortion_exactly_one(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "instance": {"quotas": [3]},
                "distribution": {"name": "iid-uniform01"},
                "mechanism": {"name": "rs", "complete": True},
                "trials": 500,
                "seed": 1,
                "output": str(tmp_path / "out.csv"),
            },
        )
        assert main(["run", cfg]) == 0
        header, row = read_rows(tmp_path / "out.csv")
        assert header[:5] == ["n", "m", "quotas", "mechanism", "distribution"]
        assert float(row[header.index("distortion")]) == 1.0
        # one agent takes every item, so the benchmark floor and the gap read exactly 1
        assert row[header.index("benchmark_lb") :] == ["1", "1"]

    def test_one_to_one_distortion_below_ceiling(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {**BASE_RUN, "output": str(tmp_path / "out.csv")})
        assert main(["run", cfg]) == 0
        header, row = read_rows(tmp_path / "out.csv")
        assert float(row[header.index("distortion")]) <= 1.59

    def test_sweep_produces_cell_rows(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "instances": [{"quotas": [1, 1]}, {"quotas": [2, 1]}],
                "distributions": [
                    {"name": "iid-uniform01"},
                    {"name": "favorite-bundle-uniform", "hi": 1.0, "lo": 0.0},
                ],
                "mechanisms": [{"name": "rs"}, {"name": "hql"}, {"name": "rsbs"}],
                "trials": 400,
                "seed": 3,
                "output": str(tmp_path / "sweep.csv"),
            },
        )
        assert main(["run", cfg]) == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert len(rows) == 1 + 2 * 2 * 3
        # rows run over instances, then mechanisms, then distributions, and each
        # equals its cell's own estimate, over the instance's floor, although
        # the cells share trials
        cells = product(
            [Instance((1, 1)), Instance((2, 1))],
            [MechanismSpec(k) for k in ("rs", "hql", "rsbs")],
            [DistributionSpec.iid_uniform01(), DistributionSpec.favorite_bundle_uniform(1.0, 0.0)],
        )
        for row, (inst, mech, dist) in zip(rows[1:], cells):
            rep = estimate_distortion(mech, dist, inst, 400, 3)
            floor = analytics.benchmark_lower_bound(inst)
            expected = (rep.mean_opt, rep.mean_sw, rep.distortion_estimate, rep.stderr_ratio, floor)
            assert row[2:5] == ["|".join(map(str, inst.quotas)), mech.label(), dist.label()]
            assert row[7:] == [cli._fmt(x) for x in (*expected, rep.distortion_estimate / floor)]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {**BASE_RUN, "trials": 2_000, "output": str(tmp_path / "a.csv")},
        )
        assert main(["run", cfg]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {**BASE_RUN, "trials": 100, "output": str(tmp_path / "out.csv")},
        )
        assert main(["run", cfg, "--trials", "250", "--seed", "9"]) == 0
        header, row = read_rows(tmp_path / "out.csv")
        assert row[header.index("trials")] == "250"
        assert row[header.index("seed")] == "9"

    def test_generated_quota_vectors(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "instance": {"n": 3, "m": 9, "generator": "uniform-quotas"},
                "distribution": {"name": "iid-uniform01"},
                "mechanism": {"name": "hql"},
                "trials": 200,
                "seed": 2,
                "output": str(tmp_path / "out.csv"),
            },
        )
        assert main(["run", cfg]) == 0
        header, row = read_rows(tmp_path / "out.csv")
        assert row[header.index("quotas")] == "3|3|3"
        cfg2 = write_config(
            tmp_path / "c2.json",
            {
                "instance": {"n": 3, "m": 12, "generator": "geometric-quotas(2.0)"},
                "distribution": {"name": "iid-uniform01"},
                "mechanism": {"name": "hql"},
                "trials": 200,
                "seed": 2,
                "output": str(tmp_path / "out2.csv"),
            },
        )
        assert main(["run", cfg2]) == 0
        header, row = read_rows(tmp_path / "out2.csv")
        quotas = [int(q) for q in row[header.index("quotas")].split("|")]
        assert sum(quotas) == 12 and len(quotas) == 3 and all(q >= 1 for q in quotas)

    @pytest.mark.parametrize(
        "sections, message",
        [
            pytest.param(
                {
                    "instances": [{"quotas": [1, 1]}, {"n": 2, "m": 2, "generator": "uniform-quotas"}],
                    "mechanisms": [{"name": "rs", "complete": True}, {"name": "rs", "complete": True}],
                },
                "instances[1]: same as instances[0]",
                id="instances-and-completed-mechanisms",
            ),
            pytest.param(
                {"mechanisms": [{"name": "rs", "complete": True}, {"name": "rs", "complete": True}]},
                "mechanisms[1]: same as mechanisms[0] (rs(complete))",
                id="completed-mechanisms",
            ),
            pytest.param(
                {"mechanisms": [{"name": "hql"}, {"name": "rs"}, {"name": "hql", "complete": False}]},
                "mechanisms[2]: same as mechanisms[0] (hql)",
                id="listed-mechanisms",
            ),
            pytest.param(
                {
                    "distributions": [
                        {"name": "iid-bernoulli", "p": 0.3},
                        {"name": "iid-uniform01"},
                        {"name": "iid-bernoulli", "p": 0.30},
                    ]
                },
                "distributions[2]: same as distributions[0] (iid-bernoulli(p=0.3))",
                id="distributions",
            ),
        ],
    )
    def test_equal_section_items_exit_2(self, tmp_path, capsys, sections, message):
        # two equal cells would write identical rows under one name
        payload = {
            "instance": {"quotas": [1, 1]},
            "distribution": {"name": "iid-uniform01"},
            "mechanism": {"name": "rs"},
            "trials": 50,
            "output": str(tmp_path / "out.csv"),
        }
        for section, items in sections.items():
            del payload[section[:-1]]
            payload[section] = items
        assert main(["run", write_config(tmp_path / "c.json", payload)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    def test_mechanism_column_names_every_field(self, tmp_path):
        # cells that differ only in `complete` must not share a name
        mechs = [
            {"name": "rs"},
            {"name": "rs", "complete": True},
            {"name": "serial-dictator", "order": [2, 0, 1], "complete": True},
        ]
        cfg = write_config(
            tmp_path / "c.json",
            {
                "instance": {"quotas": [3, 2, 1]},
                "distribution": {"name": "iid-uniform01"},
                "mechanisms": mechs,
                "trials": 200,
                "seed": 3,
                "output": str(tmp_path / "out.csv"),
            },
        )
        assert main(["run", cfg]) == 0
        header, *rows = read_rows(tmp_path / "out.csv")
        labels = [row[header.index("mechanism")] for row in rows]
        assert labels == ["rs", "rs(complete)", "serial-dictator(2|0|1,complete)"]

    @pytest.mark.parametrize("command", ["run", "probs", "ufaudit"])
    def test_no_command_takes_complete(self, tmp_path, capsys, command):
        # a mechanism's own `complete` is the only way to ask for completion
        cfg = write_config(tmp_path / "c.json", {**BASE_RUN, "output": str(tmp_path / "out.csv")})
        assert main([command, cfg, "--complete"]) == 2
        assert "--complete" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_malformed_json_exit_2_with_byte_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"instance": {"quotas": [1, 1]}, ', encoding="utf-8")
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "byte" in err

    @pytest.mark.parametrize(
        "override, field",
        [
            pytest.param(
                {"instance": {"quotas": [1, 0]}},
                "instance.quotas[1]",
                id="quota-zero",
            ),
            pytest.param(
                {"mechanism": {"name": "rs", "complete": "false"}},
                "mechanism.complete",
                id="mechanism-complete-string",
            ),
            pytest.param({"complete": "false"}, "complete", id="complete-string"),
            pytest.param({"complete": True}, "complete", id="top-level-complete"),
            pytest.param({"output": ["a", 1]}, "output", id="output-list"),
            pytest.param({"instances": [{"quotas": [1, 1]}]}, "instances", id="instance-and-instances"),
            pytest.param({"mechanisms": [{"name": "rs"}]}, "mechanisms", id="mechanism-and-mechanisms"),
            pytest.param(
                {"distributions": [{"name": "iid-uniform01"}]},
                "distributions",
                id="distribution-and-distributions",
            ),
            pytest.param(
                {"instance": {"quotas": [1, 1], "generator": "nonsense"}},
                "instance.generator",
                id="quotas-with-generator",
            ),
            pytest.param({"instance": {"quotas": [1, 1], "n": 2}}, "instance.n", id="quotas-with-n"),
            pytest.param({"trails": 50}, "trails", id="top-level-unknown"),
            pytest.param({"flags": {"complete": True}}, "flags", id="top-level-flags"),
            pytest.param({"instance": {"quotas": [1, 1], "foo": 1}}, "instance.foo", id="instance-unknown"),
            pytest.param(
                {"mechanism": {"name": "rs", "compete": True}},
                "mechanism.compete",
                id="mechanism-unknown",
            ),
            pytest.param(
                {"instance": None, "instances": [{"quotas": [1, 1]}, {"quotas": [2], "size": 1}]},
                "instances[1].size",
                id="listed-instance-unknown",
            ),
            pytest.param(
                {
                    "distribution": {
                        "name": "single-agent-adversarial",
                        "agent": 0,
                        "with_replacement": "false",
                    }
                },
                "distribution.with_replacement",
                id="with-replacement-string",
            ),
            pytest.param(
                {"distribution": {"name": "iid-bernoulli", "p": True}},
                "distribution.p",
                id="p-bool",
            ),
            pytest.param(
                {"distribution": {"name": "iid-bernoulli", "p": "0.5"}},
                "distribution.p",
                id="p-string",
            ),
            pytest.param(
                {"distribution": {"name": "iid-bernoulli", "p": 10**400}},
                "distribution.p",
                id="p-huge-int",
            ),
            pytest.param(
                {"distribution": {"name": "favorite-bundle-uniform", "hi": "1", "lo": 0.0}},
                "distribution.hi",
                id="hi-string",
            ),
            pytest.param(
                {"distribution": {"name": "favorite-bundle-uniform", "hi": 1.0, "lo": False}},
                "distribution.lo",
                id="lo-bool",
            ),
            pytest.param(
                {"distribution": {"name": "exchangeable-permutation", "base": [1.0, "0"]}},
                "distribution.base[1]",
                id="base-string",
            ),
            pytest.param(
                {"instance": {"n": 4, "m": 9, "generator": "geometric-quotas(inf)"}},
                "instance.generator",
                id="geometric-ratio-inf",
            ),
            pytest.param(
                {"instance": {"n": 4, "m": 9, "generator": "geometric-quotas(1e200)"}},
                "instance.generator",
                id="geometric-ratio-overflow",
            ),
            pytest.param(
                {"instance": {"n": 1024, "m": 1025, "generator": "geometric-quotas(2.0)"}},
                "instance.generator",  # the weight sum 2**1024 - 1 overflows while every weight is finite
                id="geometric-weight-sum-overflow",
            ),
            pytest.param(
                {"distribution": {"name": "iid-uniform01", "p": 0.3}},
                "distribution",  # the message is "iid-uniform01 does not take p"
                id="field-not-taken",
            ),
            pytest.param(
                {"distribution": {"name": "favorite-bundle-uniform", "hi": 1.0, "lo": 0.0, "with_replacement": True}},
                "distribution",
                id="with-replacement-not-taken",
            ),
            pytest.param(
                {"distribution": {"name": "iid-uniform01", "p": 0.3, "hi": "x"}},
                "distribution.hi",
                id="field-not-taken-string",
            ),
            pytest.param(
                {"distribution": {"name": "iid-uniform01", "colour": "red"}},
                "distribution.colour",
                id="unknown-field",
            ),
            pytest.param(
                {"distribution": {"name": "iid-bernoulli"}},
                "distribution",
                id="p-missing",
            ),
            pytest.param(
                {"distribution": {"name": "single-agent-adversarial", "agent": 0, "with_replacement": None}},
                "distribution.with_replacement",
                id="with-replacement-null",
            ),
        ],
    )
    def test_field_precise_error(self, tmp_path, capsys, monkeypatch, override, field):
        monkeypatch.chdir(tmp_path)  # a wrongly accepted relative output lands here
        base = {
            "instance": {"quotas": [1, 1]},
            "distribution": {"name": "iid-uniform01"},
            "mechanism": {"name": "rs"},
            "output": str(tmp_path / "x.csv"),
        }
        # an override of None drops that key of the base config
        payload = {k: v for k, v in {**base, **override}.items() if v is not None}
        assert main(["run", write_config(tmp_path / "c.json", payload)]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]

    def test_unwritable_output_exit_2(self, tmp_path, capsys, monkeypatch):
        # a path in a missing directory, or a directory, is refused before any trial runs
        monkeypatch.setattr(estimator, "estimate_distortions", refuse)
        cfg = write_config(tmp_path / "c.json", BASE_RUN)
        missing = str(tmp_path / "missing" / "x.csv")
        assert main(["run", cfg, "--out", missing]) == 2
        assert f"config error: cannot write {missing!r}: no such directory" in capsys.readouterr().err
        assert main(["run", cfg, "--out", str(tmp_path)]) == 2
        assert f"config error: cannot write {str(tmp_path)!r}: is a directory" in capsys.readouterr().err
        assert main(["curve", "--points", "10", "--out", missing]) == 2
        assert f"error: cannot write {missing!r}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, message",
        [
            pytest.param(
                {"mechanisms": [{"name": "rs"}, {"name": "serial-dictator", "order": [2, 0, 1]}]},
                "instances[1]: serial-dictator(2|0|1): order must be a permutation of the 2 agents",
                id="order",
            ),
            pytest.param(
                {
                    "mechanism": {"name": "rs"},
                    "distribution": {"name": "exchangeable-permutation", "base": [6, 5, 4, 3, 2, 1]},
                },
                "instances[1]: exchangeable-permutation(6|5|4|3|2|1): base vector has 6 entries, instance has 2 items",
                id="base",
            ),
            pytest.param(
                {"mechanism": {"name": "rs"}, "distribution": {"name": "single-agent-adversarial", "agent": 2}},
                "instances[1]: single-agent-adversarial(agent=2): adversarial agent 2 out of range for n=2",
                id="agent",
            ),
        ],
    )
    def test_every_cell_checked_before_any_trial(self, tmp_path, capsys, monkeypatch, section, message):
        # the (3, 2, 1) cells would run 300k trials before the (1, 1) cell's check
        monkeypatch.setattr(estimator, "estimate_distortions", refuse)
        payload = {
            "instances": [{"quotas": [3, 2, 1]}, {"quotas": [1, 1]}],
            "distribution": {"name": "iid-uniform01"},
            "trials": 300_000,
            "output": str(tmp_path / "out.csv"),
            **section,
        }
        assert main(["run", write_config(tmp_path / "c.json", payload)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_seed_beyond_64_bits_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path / "c.json", {**BASE_RUN, "trials": 10, "seed": 2**64, "output": str(out)})
        assert main(["run", cfg]) == 2
        assert "error: seed must fit in 64 unsigned bits" in capsys.readouterr().err
        cfg = write_config(tmp_path / "c.json", {**BASE_RUN, "trials": 10, "output": str(out)})
        assert main(["run", cfg, "--seed", str(2**64)]) == 2
        assert "error: seed must fit in 64 unsigned bits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "quotas, distribution, trials",
        [
            ([1, 1, 1], {"name": "exchangeable-permutation", "base": [1e200, 0, 0]}, 100),
            ([2, 1], {"name": "favorite-bundle-uniform", "hi": 1e160, "lo": 0}, 100),
            ([2, 1], {"name": "exchangeable-permutation", "base": [1e308, 1e308, 0]}, 10),
        ],
    )
    def test_overflowing_welfare_exit_2(self, tmp_path, capsys, quotas, distribution, trials):
        out = tmp_path / "out.csv"
        cfg = write_config(
            tmp_path / "c.json",
            {
                **BASE_RUN,
                "instance": {"quotas": quotas},
                "distribution": distribution,
                "trials": trials,
                "seed": 0,
                "output": str(out),
            },
        )
        assert main(["run", cfg]) == 2
        assert "error: values too large: a welfare sum" in capsys.readouterr().err
        assert not out.exists()

    def test_geometric_quotas_without_spare_items_are_ones(self):
        # the weight sum overflows here too, but with m == n there is nothing to share out
        assert cli._geometric_quotas(1024, 1024, 2.0) == (1,) * 1024

    def test_oversized_trial_exit_2(self, tmp_path, capsys, monkeypatch):
        # the config check builds no mechanism parameters, which take seconds for rsbs at this size
        monkeypatch.setattr(mechanisms, "rsbs_parameters", refuse)
        cfg = write_config(
            tmp_path / "c.json",
            {
                "instance": {"n": 20_000, "m": 20_000, "generator": "uniform-quotas"},
                "distribution": {"name": "iid-uniform01"},
                "mechanisms": [{"name": "rs"}, {"name": "rsbs"}],
                "trials": 1,
                "output": str(tmp_path / "out.csv"),
            },
        )
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: one trial at n=20000, m=20000 needs about 12803840008 bytes")
        assert not (tmp_path / "out.csv").exists()

    def test_oversized_instance_refused_before_any_pair_runs(self, tmp_path, capsys, monkeypatch):
        # the small instance's pair comes first, but no trial of it may run
        monkeypatch.setattr(estimator, "estimate_distortions", refuse)
        cfg = write_config(
            tmp_path / "c.json",
            {
                "instances": [{"quotas": [3, 2, 1]}, {"n": 20_000, "m": 20_000, "generator": "uniform-quotas"}],
                "distribution": {"name": "iid-uniform01"},
                "mechanism": {"name": "rs"},
                "trials": 400_000,
                "output": str(tmp_path / "out.csv"),
            },
        )
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: one trial at n=20000, m=20000 needs about")
        assert not (tmp_path / "out.csv").exists()

    def test_unknown_names_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "instance": {"quotas": [1, 1]},
                "distribution": {"name": "mystery"},
                "mechanism": {"name": "rs"},
                "output": "x.csv",
            },
        )
        assert main(["run", cfg]) == 2
        assert "mystery" in capsys.readouterr().err
        cfg = write_config(
            tmp_path / "c.json",
            {
                "instance": {"quotas": [1, 1]},
                "distribution": {"name": "iid-uniform01"},
                "mechanism": {"name": "mystery"},
                "output": "x.csv",
            },
        )
        assert main(["run", cfg]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_non_integer_thread_count_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ORDMATCH_THREADS", "abc")
        cfg = write_config(
            tmp_path / "c.json", {**BASE_RUN, "trials": 10, "output": str(tmp_path / "out.csv")}
        )
        assert main(["run", cfg]) == 2
        assert "error: ORDMATCH_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()
        monkeypatch.setenv("ORDMATCH_THREADS", "-1")
        assert main(["run", cfg]) == 2
        assert "error: ORDMATCH_THREADS must be >= 0" in capsys.readouterr().err

    def test_thread_count_reaches_the_engine_and_keeps_bytes(self, tmp_path, monkeypatch):
        # 10,000 trials of this cell make 8 chunks, cut into one group per worker
        cfg = write_config(tmp_path / "c.json", {**BASE_RUN, "trials": 10_000, "output": str(tmp_path / "a.csv")})
        assert main(["run", cfg]) == 0
        workers = []
        estimate = estimator.estimate_distortions

        def recording(*args, **kwargs):
            workers.append(kwargs["workers"])
            return estimate(*args, **kwargs)

        monkeypatch.setattr(estimator, "estimate_distortions", recording)
        monkeypatch.setenv("ORDMATCH_THREADS", "2")
        assert main(["run", cfg, "--out", str(tmp_path / "b.csv")]) == 0
        assert workers == [2]
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestProbs:
    def run_probs(self, tmp_path, mechanism, quotas=(1, 2, 3), trials=30_000):
        cfg = write_config(
            tmp_path / "p.json",
            {
                "instance": {"quotas": list(quotas)},
                "distribution": {"name": "iid-uniform01"},
                "mechanism": mechanism,
                "trials": trials,
                "seed": 5,
                "output": str(tmp_path / "probs.csv"),
            },
        )
        assert main(["probs", cfg]) == 0
        header, *rows = read_rows(tmp_path / "probs.csv")
        assert header == ["agent", "rank", "q_hat", "ci_half_width", "q_exact"]
        return rows

    def test_hql_exact_column_constant(self, tmp_path):
        rows = self.run_probs(tmp_path, {"name": "hql"})
        inst = Instance((1, 2, 3))
        expected = f"{analytics.hql_q(inst):.12g}"
        assert all(row[4] == expected for row in rows)
        assert len(rows) == 6
        for row in rows:
            assert abs(float(row[2]) - float(row[4])) <= float(row[3])

    def test_rsbs_exact_column_constant(self, tmp_path):
        rows = self.run_probs(tmp_path, {"name": "rsbs"}, quotas=(3, 2, 1))
        expected = f"{analytics.rsbs_q_exact(Instance((3, 2, 1))):.12g}"
        assert all(row[4] == expected for row in rows)

    def test_rs_exact_column_per_agent(self, tmp_path):
        rows = self.run_probs(tmp_path, {"name": "rs"}, quotas=(2, 2, 1))
        inst = Instance((2, 2, 1))
        for row in rows:
            agent = int(row[0])
            assert row[4] == f"{analytics.rs_q_exact(inst, agent):.12g}"
            assert abs(float(row[2]) - float(row[4])) <= float(row[3])

    def test_rejects_multi_cell_config(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "p.json",
            {
                "instance": {"quotas": [1, 1]},
                "distribution": {"name": "iid-uniform01"},
                "mechanisms": [{"name": "rs"}, {"name": "hql"}],
                "output": str(tmp_path / "probs.csv"),
            },
        )
        assert main(["probs", cfg]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_completing_mechanism_refused(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "p.json",
            {
                "instance": {"quotas": [2, 1]},
                "distribution": {"name": "iid-uniform01"},
                "mechanism": {"name": "rs", "complete": True},
                "output": str(tmp_path / "probs.csv"),
            },
        )
        assert main(["probs", cfg]) == 2
        assert "error: complete: " in capsys.readouterr().err
        assert not (tmp_path / "probs.csv").exists()


class TestCurve:
    def test_grid_and_trailing_max(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--points", "10000", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        comment = lines[-1]
        assert comment.startswith("# max,")
        parts = comment.split(",")
        assert float(parts[1]) == pytest.approx(1.07645, abs=1e-4)
        assert float(parts[3]) == pytest.approx(0.5, abs=1e-12)

        rows = read_rows(out)[1:]
        assert len(rows) == 10000
        xs = np.array([float(r[0]) for r in rows])
        bounds = np.array([float(r[1]) for r in rows])
        assert bounds[-1] == pytest.approx(1.0, abs=1e-12)  # x = 1 endpoint
        half = np.searchsorted(xs, 0.5)
        assert np.argmax(bounds) == half
        # rising half may carry tiny floor-jump teeth; falling half is clean
        assert np.all(np.diff(bounds[: half + 1]) >= -1e-4)
        assert np.all(np.diff(bounds[half:]) <= 1e-12)

    def test_too_few_points_exit_2(self, tmp_path):
        assert main(["curve", "--points", "1", "--out", str(tmp_path / "x.csv")]) == 2


class TestOptcheck:
    def test_agreement_default(self):
        assert main(["optcheck", "--max-m", "7", "--cases", "200", "--seed", "11"]) == 0

    def test_precondition_exit_2(self):
        assert main(["optcheck", "--max-m", "9", "--cases", "5", "--seed", "0"]) == 2
        assert main(["optcheck", "--max-m", "5", "--cases", "-3", "--seed", "0"]) == 2

    def test_zero_cases_vacuous(self):
        assert main(["optcheck", "--max-m", "5", "--cases", "0", "--seed", "0"]) == 0

    def test_oracle_mismatch_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "brute_force_opt", lambda inst, profile: -1.0)
        assert main(["optcheck", "--max-m", "4", "--cases", "3", "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert "oracle mismatch on case 0: engine above the exact optimum:" in err

    def test_engine_oracle_is_checked(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "optimal_value", lambda inst, values: -1.0)
        assert main(["optcheck", "--max-m", "4", "--cases", "3", "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert "oracle mismatch on case 0: engine more than 1e-09 below it:" in err
        assert "engine=-1.0" in err

    def test_engine_one_ulp_above_is_a_mismatch(self, monkeypatch, capsys):
        # the engine's value is one feasible welfare, so any excess is a fault
        def one_ulp_above(inst, values):
            return float(np.nextafter(opt.optimal_value(inst, values), np.inf))

        monkeypatch.setattr(cli, "optimal_value", one_ulp_above)
        assert main(["optcheck", "--max-m", "4", "--cases", "3", "--seed", "1"]) == 3
        assert "engine above the exact optimum" in capsys.readouterr().err


class TestUfaudit:
    def test_exchangeable_audit(self, tmp_path):
        cfg = write_config(
            tmp_path / "a.json",
            {
                "instance": {"quotas": [2, 2]},
                "distribution": {"name": "exchangeable-permutation", "base": [3.0, 1.0, 1.0, 0.0]},
                "trials": 20_000,
                "seed": 13,
                "output": str(tmp_path / "audit.csv"),
            },
        )
        assert main(["ufaudit", cfg]) == 0
        header, *rows = read_rows(tmp_path / "audit.csv")
        assert header[0] == "agent" and "p_value" in header
        assert len(rows) == 12  # two agents x C(4,2) subsets
        p_col = header.index("p_value")
        assert all(float(r[p_col]) > 0.001 for r in rows)

    @pytest.mark.parametrize("section, value", [("mechanism", {"name": "rs"}), ("mechanisms", [{"name": "rs"}])])
    def test_mechanism_section_refused(self, tmp_path, capsys, section, value):
        # the audit runs no mechanism, so a section it would ignore is an error
        cfg = write_config(
            tmp_path / "a.json",
            {
                "instance": {"quotas": [2, 1]},
                "distribution": {"name": "iid-uniform01"},
                section: value,
                "output": str(tmp_path / "audit.csv"),
            },
        )
        assert main(["ufaudit", cfg]) == 2
        assert f"config error: {section}: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "audit.csv").exists()


class TestUsage:
    def test_no_command_exit_2(self):
        assert main([]) == 2

    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    def test_json_examples_are_accepted_configs(self, tmp_path):
        # a key the README documents but the parser rejects fails here
        text = README.read_text(encoding="utf-8")
        blocks = re.findall(r"^```json\n(.*?)^```", text, re.S | re.M)
        assert blocks
        args = argparse.Namespace(out=str(tmp_path / "out.csv"))
        for k, block in enumerate(blocks):
            path = tmp_path / f"readme-{k}.json"
            path.write_text(block, encoding="utf-8")
            assert cli.load_config(str(path), args)["output"] == args.out

    def test_flags_and_command_lines_parse(self):
        # a flag or command line the README shows but the parser rejects fails here
        text = README.read_text(encoding="utf-8")
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        options = {flag for command in commands.values() for flag in command._option_string_actions}
        flags = set(re.findall(r"(?<![\w-])--\w[\w-]*", text))
        assert flags and flags <= options, f"README names no command's option: {sorted(flags - options)}"
        blocks = re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M)
        lines = [line for block in blocks for line in block.splitlines() if line.startswith("ordmatch ")]
        assert lines
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README command line does not parse: {line}")
