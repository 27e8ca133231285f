"""Tests for the command-line interface."""

from dataclasses import replace

import numpy as np
import pytest

from repro import RAPMiner, obs
from repro.baselines import Adtributor
from repro.cli import build_parser, main
from repro.data.io import load_cases, save_cases
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema, schema_from_sizes
from repro.experiments.presets import fast_preset
from repro.experiments.runner import run_cases


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A small generated RAPMD bundle on disk."""
    path = tmp_path_factory.mktemp("cli") / "rapmd.json"
    code = main(["generate", "rapmd", "--out", str(path), "--scale", "fast", "--seed", "2"])
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "fig99"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["localize", "--cases", "b.json"],
            ["batch-localize", "--cases", "b.json"],
            ["fleet-localize", "--cases", "b.json"],
            ["stream-localize", "--cases", "b.json"],
            ["serve"],
            ["analyze", "--cases", "b.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_rejects_negative_k(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--k", "-1"])
        assert exit_info.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err


class TestGenerate:
    def test_writes_bundle(self, bundle, capsys):
        from repro.data.io import load_cases

        cases = load_cases(bundle)
        assert len(cases) > 0
        assert all(case.true_raps for case in cases)

    def test_squeeze_bundle(self, tmp_path, capsys):
        path = tmp_path / "squeeze.json"
        assert main(["generate", "squeeze", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out


class TestLocalize:
    def test_localizes_single_case(self, bundle, capsys):
        from repro.data.io import load_cases

        case_id = load_cases(bundle)[0].case_id
        code = main(
            ["localize", "--cases", str(bundle), "--case-id", case_id, "--method", "RAPMiner"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert case_id in out
        assert "truth:" in out
        assert "hits:" in out

    def test_unknown_case_id(self, bundle):
        with pytest.raises(SystemExit):
            main(["localize", "--cases", str(bundle), "--case-id", "nope"])

    def test_unknown_method(self, bundle):
        with pytest.raises(SystemExit):
            main(["localize", "--cases", str(bundle), "--method", "Magic"])

    def test_explicit_k(self, bundle, capsys):
        from repro.data.io import load_cases

        case_id = load_cases(bundle)[0].case_id
        main(["localize", "--cases", str(bundle), "--case-id", case_id, "--k", "2"])
        assert "k=2" in capsys.readouterr().out


class TestEvaluate:
    def test_rc_protocol(self, bundle, capsys):
        code = main(
            ["evaluate", "--cases", str(bundle), "--methods", "RAPMiner,Adtributor"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RC@3" in out
        assert "RAPMiner" in out
        assert "Adtributor" in out

    def test_f1_protocol(self, bundle, capsys):
        code = main(
            [
                "evaluate",
                "--cases",
                str(bundle),
                "--methods",
                "RAPMiner",
                "--protocol",
                "f1",
            ]
        )
        assert code == 0
        assert "mean F1" in capsys.readouterr().out


class TestAnalyze:
    def test_analyze_prints_breakdown_and_profile(self, bundle, capsys):
        code = main(["analyze", "--cases", str(bundle), "--method", "RAPMiner"])
        assert code == 0
        out = capsys.readouterr().out
        assert "failure breakdown for RAPMiner" in out
        assert "exact" in out
        assert "recommended t_CP" in out

    def test_analyze_respects_k(self, bundle, capsys):
        assert main(["analyze", "--cases", str(bundle), "--k", "1"]) == 0
        assert "failure breakdown" in capsys.readouterr().out


class TestReport:
    def test_report_to_file(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli_module
        import repro.experiments.report_builder as rb

        monkeypatch.setattr(rb, "build_report", lambda **kw: "# stub")
        out = tmp_path / "report.md"
        assert main(["report", "--out", str(out)]) == 0
        assert out.read_text() == "# stub"


class TestGenerateDigest:
    def test_generate_prints_workload_digest(self, tmp_path, capsys):
        path = tmp_path / "digest.json"
        assert main(["generate", "rapmd", "--out", str(path), "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert "RAP dimensions" in out
        assert "mean anomalous-leaf ratio" in out


class TestTrace:
    """`repro localize --trace PATH` — the `make trace-demo` assertion set."""

    def test_trace_writes_parseable_jsonl_with_expected_spans(
        self, bundle, tmp_path, capsys
    ):
        from repro import obs
        from repro.data.io import load_cases

        case_id = load_cases(bundle)[0].case_id
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "localize",
                "--cases",
                str(bundle),
                "--case-id",
                case_id,
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        records = obs.read_jsonl(str(trace_path))  # parses line by line
        assert records[0]["type"] == "meta"
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {"miner.run", "search.run", "search.layer", "cp.attribute_deletion"} <= span_names
        layer_spans = [
            r for r in records if r["type"] == "span" and r["name"] == "search.layer"
        ]
        assert layer_spans, "expected at least one per-layer search span"
        for record in layer_spans:
            attrs = record["attributes"]
            assert {"layer", "n_cuboids", "n_combinations", "coverage_fraction"} <= set(attrs)
        counter_names = {r["name"] for r in records if r["type"] == "counter"}
        assert "miner_runs_total" in counter_names
        # Engine work is tallied onto the run span, not the registry.
        (run_record,) = [
            r for r in records if r["type"] == "span" and r["name"] == "miner.run"
        ]
        assert any(key.startswith("engine_") for key in run_record["attributes"])
        assert not any(name.startswith("engine_") for name in counter_names)
        out = capsys.readouterr().out
        assert "trace: wrote" in out
        assert "spans:" in out  # the rendered run summary

    def test_trace_leaves_no_collector_installed(self, bundle, tmp_path):
        from repro import obs
        from repro.data.io import load_cases

        case_id = load_cases(bundle)[0].case_id
        trace_path = tmp_path / "trace.jsonl"
        main(
            [
                "localize",
                "--cases",
                str(bundle),
                "--case-id",
                case_id,
                "--trace",
                str(trace_path),
            ]
        )
        assert not obs.is_active()


class TestReproduce:
    def test_table4(self, capsys):
        assert main(["reproduce", "table4"]) == 0
        out = capsys.readouterr().out
        assert "0.50000" in out
        assert "0.96875" in out

    def test_fig10b_fast(self, capsys):
        assert main(["reproduce", "fig10b", "--scale", "fast", "--seed", "3"]) == 0
        assert "t_conf" in capsys.readouterr().out

    def test_fig8b_fast(self, capsys):
        assert main(["reproduce", "fig8b", "--scale", "fast", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "RAPMiner" in out
        assert "Squeeze" in out


class TestStreamLocalize:
    def test_replays_bundle_with_verification(self, bundle, capsys):
        code = main(
            ["stream-localize", "--cases", str(bundle), "--verify", "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Every case line carries a path, churn and a verification verdict.
        assert "cold" in out
        assert "changed" in out
        assert "MISMATCH" not in out
        assert "verification passed" in out
        assert "amortized" in out

    def test_pinned_crossover_knob(self, bundle, capsys):
        code = main(
            ["stream-localize", "--cases", str(bundle), "--crossover", "0.5"]
        )
        assert code == 0
        assert "amortized" in capsys.readouterr().out

    def test_rejects_malformed_crossover(self, bundle):
        with pytest.raises(SystemExit):
            main(["stream-localize", "--cases", str(bundle), "--crossover", "fast"])

    def test_serve_metrics_on_ephemeral_port(self, bundle, capsys):
        from repro import obs

        code = main(
            ["stream-localize", "--cases", str(bundle), "--serve-metrics", "127.0.0.1:0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry: serving http://127.0.0.1:" in out
        assert "for the lifetime of the replay" in out
        # The capture and the server are both torn down after the replay.
        assert not obs.is_active()

    def test_serve_metrics_accepts_bare_port(self, bundle, capsys):
        assert main(
            ["stream-localize", "--cases", str(bundle), "--serve-metrics", "0"]
        ) == 0
        assert "telemetry: serving http://127.0.0.1:" in capsys.readouterr().out

    def test_serve_metrics_rejects_malformed_port(self, bundle):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(
                ["stream-localize", "--cases", str(bundle), "--serve-metrics", "lo:x"]
            )


class TestProfile:
    def trace_path(self, bundle, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main(
            ["localize", "--cases", str(bundle), "--trace", str(path)]
        ) == 0
        return path

    def test_profiles_trace_jsonl(self, bundle, tmp_path, capsys):
        path = self.trace_path(bundle, tmp_path)
        capsys.readouterr()
        assert main(["profile", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        for column in ("span", "count", "self%", "child", "total"):
            assert column in header
        assert "miner.run" in out

    def test_top_limits_rows(self, bundle, tmp_path, capsys):
        path = self.trace_path(bundle, tmp_path)
        capsys.readouterr()
        assert main(["profile", "--trace", str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        # Header + one family row + the hidden-count footer.
        assert "below the top-1" in out

    def test_spanless_trace_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"type": "meta", "version": 1, "n_spans": 0}\n')
        assert main(["profile", "--trace", str(path)]) == 1
        assert "no span records" in capsys.readouterr().out


def write_bundle(directory, cases, name="bundle.json"):
    path = directory / name
    save_cases(cases, path)
    return path


def run_batch_localize(path, *flags, monkeypatch, capsys):
    """Run ``repro batch-localize`` over *path*.

    Returns the printed ``(case_id, hits)`` rows and the
    ``(case_id, predicted)`` pairs the command ranked (recorded by
    wrapping its row builder, since rows print hits, not patterns).
    """
    import repro.cli as cli

    ranked = []
    real_rows = cli._batch_rows

    def recording_rows(method, cases, ks):
        rows = real_rows(method, cases, ks)
        for case, (predicted, __) in zip(cases, rows):
            ranked.append((case.case_id, list(predicted)))
        return rows

    monkeypatch.setattr(cli, "_batch_rows", recording_rows)
    capsys.readouterr()
    assert main(["batch-localize", "--cases", str(path), *flags]) == 0
    out = capsys.readouterr().out
    rows = [tuple(l.split()[:3:2]) for l in out.splitlines() if "  hits " in l]
    return rows, ranked


def serial_rows(method, cases, **kwargs):
    """What serial ``localize`` prints and ranks for *cases*."""
    evaluation = run_cases(method, cases, **kwargs)
    printed = [
        (r.case_id, f"{sum(p in r.true_raps for p in r.predicted)}/{len(r.true_raps)}")
        for r in evaluation.results
    ]
    return printed, [(r.case_id, r.predicted) for r in evaluation.results]


@pytest.fixture(scope="module")
def small_cases():
    return generate_rapmd(
        cdn_schema(4, 2, 2, 3), RAPMDConfig(n_cases=4, n_days=2, seed=9)
    )


@pytest.fixture(scope="module")
def small_bundle(small_cases, tmp_path_factory):
    return write_bundle(tmp_path_factory.mktemp("batch"), small_cases)


class TestBatchLocalize:
    """``repro batch-localize``: one ``RAPMiner.run_batch`` call (a
    per-case loop for baselines) whose rows equal serial ``localize``."""

    def test_reports_throughput(self, bundle, capsys):
        code = main(["batch-localize", "--cases", str(bundle), "--k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cases in one batch" in out
        assert "cases/s" in out

    def test_matches_serial_localize_output(self, bundle, capsys):
        main(["batch-localize", "--cases", str(bundle), "--k", "3"])
        batch_out = capsys.readouterr().out
        main(["localize", "--cases", str(bundle), "--k", "3"])
        serial_out = capsys.readouterr().out
        batch_rows = [l.split() for l in batch_out.splitlines() if "hits" in l]
        batch_ids = [row[0] for row in batch_rows]
        batch_hits = [row[2] for row in batch_rows]
        serial_lines = serial_out.splitlines()
        # Each serial case opens with an unindented "<case_id>  (method, k)"
        # header; its detail lines are indented.
        serial_ids = [
            l.split()[0] for l in serial_lines if l.strip() and not l[0].isspace()
        ]
        serial_hits = [l.split()[1] for l in serial_lines if "hits:" in l]
        assert batch_ids == serial_ids
        assert batch_hits == serial_hits
        assert len(batch_hits) > 0

    def test_npz_bundle_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "rapmd.npz"
        assert main(["generate", "rapmd", "--out", str(path), "--seed", "2"]) == 0
        assert path.read_bytes()[:2] == b"PK"
        capsys.readouterr()
        code = main(["batch-localize", "--cases", str(path), "--k", "3"])
        assert code == 0
        assert "cases/s" in capsys.readouterr().out

    def test_matches_serial(self, small_cases, small_bundle, monkeypatch, capsys):
        got = run_batch_localize(
            small_bundle, "--k", "3", monkeypatch=monkeypatch, capsys=capsys
        )
        assert got == serial_rows(RAPMiner(), small_cases, k=3)

    def test_k_from_truth(self, small_cases, small_bundle, monkeypatch, capsys):
        got = run_batch_localize(small_bundle, monkeypatch=monkeypatch, capsys=capsys)
        assert got == serial_rows(RAPMiner(), small_cases, k_from_truth=True)

    def test_fast_preset(self, tmp_path, monkeypatch, capsys):
        preset_cases = fast_preset(seed=1).rapmd_cases()
        path = write_bundle(tmp_path, preset_cases)
        got = run_batch_localize(
            path, "--k", "5", monkeypatch=monkeypatch, capsys=capsys
        )
        assert got == serial_rows(RAPMiner(), preset_cases, k=5)

    def test_randomized_schema_grid(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(4)
        grid_cases = []
        layouts = set()
        for trial in range(2):
            sizes = tuple(int(rng.integers(2, 6)) for _ in range(4))
            layouts.add(sizes)
            grid_cases += [
                replace(case, case_id=f"grid{trial}-{case.case_id}")
                for case in generate_rapmd(
                    schema_from_sizes(list(sizes)),
                    RAPMDConfig(n_cases=4, n_days=1, seed=30 + trial),
                )
            ]
        assert len(layouts) == 2  # one bundle, two layout groups
        path = write_bundle(tmp_path, grid_cases)
        got = run_batch_localize(path, monkeypatch=monkeypatch, capsys=capsys)
        assert got == serial_rows(RAPMiner(), grid_cases, k_from_truth=True)

    def test_search_counters_match_serial(self, small_cases, small_bundle, capsys):
        with obs.capture() as collector:
            main(["batch-localize", "--cases", str(small_bundle), "--k", "3"])
        # Every case runs on the stacked kernel, none on a fleet worker.
        assert collector.metrics.value("stacked_batch_cases_total") == len(
            small_cases
        )
        assert collector.metrics.family_total("fleet_engine_builds_total") == 0
        with obs.capture() as serial_collector:
            run_cases(RAPMiner(), small_cases, k=3)
        for name in (
            "search_cuboids_total",
            "search_combinations_total",
            "search_candidates_total",
            "search_criteria3_pruned_total",
        ):
            assert collector.metrics.value(name) == serial_collector.metrics.value(
                name
            ), name

    def test_baseline_matches_serial(
        self, small_cases, small_bundle, monkeypatch, capsys
    ):
        got = run_batch_localize(
            small_bundle,
            "--method",
            "Adtributor",
            "--k",
            "3",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert got == serial_rows(Adtributor(), small_cases, k=3)

    def test_failing_case_becomes_one_error_row(
        self, small_cases, small_bundle, monkeypatch, capsys
    ):
        import repro.cli as cli

        want, __ = serial_rows(RAPMiner(), small_cases, k=3)
        cases = load_cases(small_bundle)
        bad = cases[1]
        real_localize = RAPMiner.localize

        def failing_batch(self, datasets, k=None, budget=None, degradation=None):
            raise RuntimeError("stacked kernel down")

        def localize(self, dataset, k=None):
            if dataset is bad.dataset:
                raise ValueError("injected failure")
            return real_localize(self, dataset, k)

        monkeypatch.setattr(cli, "load_cases", lambda path: cases)
        monkeypatch.setattr(RAPMiner, "run_batch", failing_batch)
        monkeypatch.setattr(RAPMiner, "localize", localize)
        capsys.readouterr()
        assert main(["batch-localize", "--cases", str(small_bundle), "--k", "3"]) == 0
        out, err = capsys.readouterr()
        rows = [l for l in out.splitlines() if "  hits " in l]
        errors = [l for l in rows if "ERROR" in l]
        assert errors == [
            f"{bad.case_id}  hits 0/{len(bad.true_raps)}  "
            "ERROR ValueError: injected failure"
        ]
        assert [tuple(l.split()[:3:2]) for l in rows if "ERROR" not in l] == [
            row for row in want if row[0] != bad.case_id
        ]
        assert "1 case(s) returned error records" in out
        assert "run_batch raised RuntimeError: stacked kernel down" in err

    def test_degrade_notes_match_localize(self, small_bundle, capsys):
        def notes(command):
            main([command, "--cases", str(small_bundle), "--k", "3", "--degrade"])
            lines = capsys.readouterr().out.splitlines()
            return [l[l.index("[stop=") :] for l in lines if "[stop=" in l]

        serial_notes = notes("localize")
        assert notes("batch-localize") == serial_notes
        assert len(serial_notes) == 4


class TestFleetReplay:
    @pytest.fixture()
    def fleet_log(self, bundle, tmp_path):
        """A complete fleet store persisted from a small serving run."""
        from repro.core.miner import RAPMiner
        from repro.data.io import load_cases
        from repro.fleet import FleetConfig, fleet_localize

        path = tmp_path / "fleet.log"
        fleet_localize(
            RAPMiner(),
            load_cases(bundle)[:3],
            config=FleetConfig(mode="inline", k_from_truth=True),
            store=str(path),
        )
        return path

    def test_replay_verifies_bit_exact(self, fleet_log, capsys):
        code = main(["fleet-localize", "--replay", str(fleet_log)])
        assert code == 0
        assert "bit-exact" in capsys.readouterr().out

    def test_replay_flags_missing_result_rows(self, fleet_log, tmp_path, capsys):
        """A log that crashed mid-drain has fewer results than cases.

        Regression: verification used to zip persisted rows with replay
        results positionally, so a truncated log could still print
        bit-exact (exit 0) without checking every replayed case.
        """
        from repro.fleet import FleetStore

        truncated = tmp_path / "truncated.log"
        with FleetStore(fleet_log, mode="r") as src, FleetStore(truncated) as dst:
            for seq, tenant, case in src.cases():
                dst.append_case(seq, tenant, case)
            for row in src.results()[:-1]:  # drop the last result row
                payload = {
                    k: v for k, v in row.items() if k not in ("seq", "tenant")
                }
                dst.append_result(row["seq"], row["tenant"], payload)
        code = main(["fleet-localize", "--replay", str(truncated)])
        assert code == 1
        out = capsys.readouterr().out
        assert "had no persisted result" in out
        assert "bit-exact" not in out
