"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_table_command_parses(self):
        args = build_parser().parse_args(["table"])
        assert args.command == "table"

    def test_figure_command_parses(self):
        args = build_parser().parse_args(["figure", "5.1", "--seeds", "3"])
        assert args.figure == "5.1"
        assert args.seeds == 3

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "incentive"
        assert args.selfish == 0.0

    def test_unknown_scheme_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "bogus"])


class TestCompare:
    def test_compare_command_parses(self):
        args = build_parser().parse_args(
            ["compare", "incentive", "chitchat", "--seeds", "2"]
        )
        assert args.schemes == ["incentive", "chitchat"]
        assert args.seeds == 2

    def test_compare_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "bogus"])


class TestTrace:
    def test_trace_contacts_writes_jsonl(self, tmp_path, capsys):
        from repro.mobility.trace import ContactTrace

        out = tmp_path / "trace.jsonl"
        code = main([
            "trace", "contacts", str(out),
            "--nodes", "15", "--duration", "600",
        ])
        assert code == 0
        loaded = ContactTrace.load(out)
        assert len(loaded) > 0
        assert "wrote" in capsys.readouterr().out

    def test_trace_contacts_writes_one_format(self, tmp_path):
        from repro.mobility.one_trace import load_one_trace

        out = tmp_path / "conn.txt"
        code = main([
            "trace", "contacts", str(out), "--format", "one",
            "--nodes", "15", "--duration", "600",
        ])
        assert code == 0
        assert len(load_one_trace(out)) > 0

    def test_run_with_trace_then_audit(self, tmp_path, capsys):
        trace_file = tmp_path / "run.jsonl"
        code = main([
            "run", "--nodes", "14", "--duration", "900",
            "--trace", str(trace_file),
        ])
        assert code == 0
        assert trace_file.exists()
        assert "wrote event trace" in capsys.readouterr().out

        code = main(["trace", "audit", str(trace_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "conservation audit passed" in out
        assert "endowment=" in out

    def test_trace_audit_json_output(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "run.jsonl"
        assert main([
            "run", "--nodes", "14", "--duration", "900",
            "--trace", str(trace_file),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "audit", str(trace_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["conservation_checks"] > 0

    def test_trace_audit_rejects_garbage(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("not json at all\n")
        code = main(["trace", "audit", str(bogus)])
        assert code == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_trace_audit_rejects_invalid_byte(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_bytes(b'{"type":"trace-header","t":0.0,"schema":2}\n\xff\n')
        code = main(["trace", "audit", str(bogus)])
        assert code == 1
        assert f"invalid trace: {bogus}:2: " in capsys.readouterr().err


class TestExecution:
    def test_table_prints_parameters(self, capsys):
        assert main(["table"]) == 0
        out = capsys.readouterr().out
        assert "Table 5.1" in out
        assert "500" in out

    def test_unknown_figure_is_an_error(self, capsys):
        assert main(["figure", "9.9"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["run", "--nodes", "1"], "n_nodes"),
        (["run", "--selfish", "1.5"], "selfish_fraction"),
        (["compare", "chitchat", "incentive", "--seeds", "0"], "empty sample"),
        (["faults", "--losses", "2.0"], "loss levels"),
    ], ids=["run-nodes", "run-selfish", "compare-zero-seeds", "faults-loss"])
    def test_invalid_input_exits_2_with_one_line(self, capsys, argv, named):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        assert err.count("\n") == 1  # the message, no traceback


class TestFaults:
    def test_faults_command_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.losses == [0.0, 0.1, 0.2, 0.3]
        assert args.schemes == ["incentive", "chitchat"]
        assert args.retransmissions == 0
        assert not args.churn

    def test_faults_flags_parse(self):
        args = build_parser().parse_args(
            ["faults", "--losses", "0", "0.2", "--churn",
             "--churn-policy", "persist", "--retransmissions", "2",
             "--nodes", "16", "--duration", "900"]
        )
        assert args.losses == [0.0, 0.2]
        assert args.churn and args.churn_policy == "persist"
        assert args.retransmissions == 2
        assert args.nodes == 16
        assert args.duration == 900.0

    def test_bad_churn_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["faults", "--churn-policy", "amnesia"]
            )

    def test_faults_sweep_runs_clean(self, capsys):
        code = main(
            ["faults", "--losses", "0", "0.25", "--retransmissions", "1",
             "--nodes", "14", "--duration", "900"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ledger integrity" in out
        assert "incentive" in out and "chitchat" in out

    def test_faults_sweep_with_churn(self, capsys):
        code = main(
            ["faults", "--losses", "0.2", "--churn",
             "--mean-uptime", "400", "--mean-downtime", "200",
             "--nodes", "14", "--duration", "900"]
        )
        assert code == 0
        assert "ledger integrity" in capsys.readouterr().out


class TestSchemesCommand:
    def test_lists_every_scheme(self, capsys):
        from repro.schemes.registry import scheme_names

        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in scheme_names():
            assert name in out

    def test_tag_filter_lists_tagged_schemes(self, capsys):
        assert main(["schemes", "--tag", "token"]) == 0
        out = capsys.readouterr().out
        assert "incentive" in out
        assert "minority-game" in out

    def test_unknown_tag_exits_2_with_the_vocabulary(self, capsys):
        from repro.schemes.registry import KNOWN_TAGS

        assert main(["schemes", "--tag", "tokn"]) == 2
        err = capsys.readouterr().err
        assert "unknown scheme tag 'tokn'" in err
        # The full tag vocabulary, so the user can self-correct.
        for tag in KNOWN_TAGS:
            assert tag in err


class TestHetero:
    def test_hetero_command_defaults(self):
        args = build_parser().parse_args(["hetero"])
        assert args.nodes == 120
        assert args.duration == 3600.0
        assert args.seeds == 1
        assert args.schemes == [
            "incentive", "incentive-chitchat-hetero", "minority-game",
        ]
        assert (args.pedestrian, args.vehicular, args.infrastructure) == (
            0.6, 0.3, 0.1
        )

    def test_hetero_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hetero", "--schemes", "nope"])

    def test_bad_fractions_exit_2(self, capsys):
        assert main([
            "hetero", "--pedestrian", "0.9", "--vehicular", "0.9",
            "--infrastructure", "0.0",
        ]) == 2
        assert "sum to 1" in capsys.readouterr().err

    def test_hetero_sweep_runs_clean(self, capsys):
        code = main([
            "hetero", "--nodes", "24", "--duration", "600",
            "--seeds", "1", "--schemes", "incentive-chitchat-hetero",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pedestrian" in out
        assert "vehicular" in out
        assert "infrastructure" in out
        assert "conservation audit clean" in out
