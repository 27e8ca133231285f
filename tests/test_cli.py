"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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
        assert any(name.startswith("engine_") for name in counter_names)
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


class TestBatchLocalize:
    def test_reports_throughput(self, bundle, capsys):
        code = main(["batch-localize", "--cases", str(bundle), "--k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "one micro-batch per layout" in out
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
