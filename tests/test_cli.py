"""Tests for the command-line interface and the ASCII renderer."""

import socket

import pytest

from repro.cli import TOPOLOGIES, build_parser, main
from repro.core import MRSIN, OptimalScheduler, Request
from repro.networks import omega
from repro.networks.render import render_circuits, render_network


class TestRenderer:
    def test_free_network_render(self):
        net = omega(4)
        text = render_network(net)
        assert text.count("\n") == 3  # one row per processor
        assert "p0" in text and "r0" in text
        assert "==>" not in text  # nothing occupied

    def test_occupied_links_marked(self):
        net = omega(4)
        net.establish_circuit(net.find_free_path(0, 0))
        text = render_network(net, busy_resources={0})
        assert "==>" in text
        assert "*busy*" in text

    def test_box_connections_shown(self):
        net = omega(4)
        net.establish_circuit(net.find_free_path(1, 2))
        text = render_network(net)
        assert "-" in text  # an a-b connection glyph somewhere

    def test_render_circuits(self):
        net = omega(4)
        assert render_circuits(net) == "(no circuits established)"
        net.establish_circuit(net.find_free_path(2, 3))
        out = render_circuits(net)
        assert out.startswith("p2 -> links[")
        assert out.endswith("-> r3")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_topology_registry_all_build(self):
        for name, builder in TOPOLOGIES.items():
            net = builder(8)
            assert net.n_processors == 8, name

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--network", "hypercube9"])

    def test_cli_registry_is_the_networks_registry(self):
        """``repro.cli.TOPOLOGIES`` stays importable, as a re-export of
        the one table in ``repro.networks`` — not a second copy."""
        import repro.networks

        assert TOPOLOGIES is repro.networks.TOPOLOGIES


class TestCommands:
    def test_schedule(self, capsys):
        assert main(["schedule", "--network", "omega", "--ports", "8"]) == 0
        out = capsys.readouterr().out
        assert "optimal allocated 8" in out

    def test_schedule_render(self, capsys):
        assert main(["schedule", "--render", "--request-density", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "p0" in out

    @pytest.mark.parametrize("policy", ["distributed", "greedy", "random_binding", "arbitrary"])
    def test_schedule_policies(self, capsys, policy):
        assert main(["schedule", "--policy", policy, "--ports", "4"]) == 0
        assert f"{policy} allocated" in capsys.readouterr().out

    def test_blocking(self, capsys):
        assert main(["blocking", "--policy", "optimal", "--trials", "5"]) == 0
        assert "P(block)" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main([
            "sweep", "--trials", "5", "--densities", "0.5", "1.0",
            "--policies", "optimal", "random_binding",
        ]) == 0
        out = capsys.readouterr().out
        assert "d=0.5" in out and "d=1" in out

    def test_queueing(self, capsys):
        assert main(["queueing", "--rate", "0.3", "--horizon", "50"]) == 0
        out = capsys.readouterr().out
        assert "resource utilization" in out

    def test_tokens(self, capsys):
        assert main(["tokens", "--ports", "4", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "request-token-propagation" in out
        assert "clk" in out

    def test_chaos(self, capsys):
        """Fault churn is ``serve --fault-rate``; its table adds the
        fault rows, a fault-free table never shows them."""
        assert main([
            "serve", "--network", "omega", "--ports", "8",
            "--horizon", "60", "--seed", "2", "--fault-rate", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults_injected" in out and "revoked" in out
        assert main(["serve", "--ports", "8", "--horizon", "60", "--seed", "2"]) == 0
        assert "faults_injected" not in capsys.readouterr().out

    def test_chaos_deterministic_output(self, capsys):
        argv = ["serve", "--ports", "8", "--horizon", "40", "--seed", "6",
                "--fault-rate", "0.08"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_chaos_rejects_bad_ticks(self):
        with pytest.raises(SystemExit, match="horizon"):
            main(["serve", "--horizon", "0", "--fault-rate", "0.08"])

    def test_a_broken_invariant_is_a_one_line_error(self, monkeypatch):
        """Every ``serve`` tick runs the shared invariant set: a release
        that leaks its resource stops the run with a nonzero exit."""
        from repro.service.server import AllocationService

        def leaky_release(self, lease):
            lease.active = False
            del self._leases[lease.lease_id]

        monkeypatch.setattr(AllocationService, "release", leaky_release)
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--ports", "8", "--horizon", "60"])
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("error: invariant violated: tick at t=")

    @pytest.mark.parametrize(
        "argv,complaint",
        [
            # One validated builder: a size the topology cannot realise
            # used to run a 6x6 network under a "clos-7" title (sweep)
            # or die in a traceback (sweep on omega-6).
            ("sweep --network clos --ports 7 --trials 1", "6x6"),
            ("sweep --network omega --ports 6 --trials 1", "power of two"),
            ("schedule --network clos --ports 7", "6x6"),
            ("queueing --network omega --ports 6", "power of two"),
            ("serve --network clos --ports 7 --horizon 5", "6x6"),
            ("serve --fault-rate 0.1 --network clos --ports 7 --horizon 5", "6x6"),
            ("wire-serve --network clos --ports 7 --duration 0.1", "6x6"),
            # Library validation reaches the shell as one line.
            ("queueing --rate 0", "arrival_rate must be positive"),
            ("blocking --request-density 2", "request_density"),
            ("schedule --request-density 2", "request_density"),
            ("tokens --free-density -1", "free_density"),
            ("sweep --densities 1.5 --trials 1", "request_density"),
            # ... naming the repo's own argument, not numpy's ("scale <
            # 0", "lam < 0"), and never an all-zero table with exit 0
            # (a run whose clients all died, or that never started).
            ("serve --service -1 --horizon 20", "mean_service must be >= 0"),
            ("serve --horizon -5", "horizon must be positive"),
            ("serve --transmission -1 --horizon 20", "transmission_time must be >= 0"),
            ("serve --rate -1 --horizon 5", "arrival rate must be positive"),
            ("queueing --service -1", "mean_service must be >= 0"),
            ("queueing --horizon -3", "horizon must be positive"),
            ("blocking --trials 0", "trials must be >= 1"),
            ("blocking --trials -1", "trials must be >= 1"),
            # NaN slips past every `x <= 0` test and inf never ends:
            # these used to print a table from a run that served
            # nothing (exit 0), hang, or return at once.
            ("serve --tick nan --horizon 5", "tick_interval must be positive"),
            ("serve --rate nan --horizon 5", "arrival rate must be positive"),
            ("serve --timeout -1 --horizon 5", "timeout must be a finite number > 0"),
            ("serve --horizon inf", "horizon must be positive and finite"),
            ("wire-serve --duration -1", "duration must be positive"),
            # The same family one layer out: a NaN rate used to inject
            # zero faults and report "invariants all held", schedule zero
            # arrivals and report a clean run, or die on an internal
            # error; an infinite one never returned.
            ("serve --fault-rate nan --horizon 5", "fault_rate must be positive and finite"),
            ("serve --fault-rate 0.1 --mean-repair nan --horizon 5",
             "mean_repair must be positive and finite"),
            ("serve --fault-rate inf --horizon 5", "fault_rate must be positive and finite"),
            # ... and at rate 0 too: the knobs come from outside.
            ("serve --mean-repair nan --horizon 5", "mean_repair must be positive and finite"),
            ("serve --transient nan --horizon 5", "transient_fraction must be in"),
            ("wire-serve --fault-rate nan --duration 0.1", "fault_rate must be positive"),
            ("queueing --rate nan", "arrival_rate must be positive and finite"),
            ("queueing --horizon inf", "horizon must be positive and finite"),
            ("loadgen --port 1 --rate nan", "rate must be positive and finite"),
            ("loadgen --port 1 --rate inf", "rate must be positive and finite"),
            ("loadgen --port 1 --duration nan", "duration must be positive and finite"),
            ("loadgen --port 1 --hold nan", "mean_hold must be finite and >= 0"),
            ("loadgen --port 1 --timeout nan", "request_timeout must be positive and finite"),
            ("serve --occupied -1 --horizon 5", "occupied_circuits must be >= 0"),
            ("schedule --occupied -1", "occupied_circuits must be >= 0"),
            # An infinite rate reached numpy ("lam value too large") —
            # for the fabric after its cells were forked.
            ("serve --rate inf --horizon 5", "arrival rate must be positive and finite"),
            ("fabric-serve --rate inf", "rate must be positive and finite"),
            # A kill schedule the run cannot play: reported as an
            # invariant violation after the whole workload had run.
            ("fabric-serve --cells 2 --ports 8 --rounds 12 --kill-cell 1 "
             "--kill-round 4 --rejoin-round 20", "rejoin_round 20 beyond the 12 rounds"),
            ("fabric-serve --cells 2 --ports 8 --rounds 12 --kill-cell 1 "
             "--kill-round 13 --rejoin-round 0", "kill_round 13 beyond the 12 rounds"),
            ("fabric-serve --cells 1 --ports 8 --kill-cell 0", "cells must be >= 2"),
            ("fabric-serve --kill-round 4", "need --kill-cell"),
        ],
    )
    def test_bad_input_is_a_one_line_error(self, argv, complaint):
        with pytest.raises(SystemExit, match=complaint) as exit_info:
            main(argv.split())
        message = exit_info.value.code  # a str: printed to stderr, status 1
        assert isinstance(message, str)
        assert message.startswith("error: ") and "\n" not in message

    def test_lint_real_tree_is_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_lint_reports_findings_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(x):\n    assert x\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "bad.py:2" in out

    def test_lint_json_format(self, tmp_path, capsys):
        import json

        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        assert main(["lint", "--format", "json", str(bad)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["findings"] == 1
        assert doc["findings"][0]["rule"] == "R002"

    def test_lint_stats_summary(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import random\n"
            "def f(x):\n"
            "    assert x  # repro: noqa R001 -- CLI stats fixture\n"
        )
        assert main(["lint", "--stats", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R002: 1" in out
        assert "R001 (suppressed): 1" in out
        assert "1 suppressed" in out

    def test_lint_select_subset(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\ndef f(x):\n    assert x\n")
        assert main(["lint", "--select", "R002", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R002" in out and "R001" not in out

    def test_lint_unknown_rule_rejected(self):
        with pytest.raises(SystemExit, match="unknown rule"):
            main(["lint", "--select", "R999"])

    def test_lint_missing_path_rejected(self):
        with pytest.raises(SystemExit, match="no such file"):
            main(["lint", "/no/such/path/at/all"])

    def test_typecheck_gated(self, capsys):
        """Exit 0/1/2 with mypy installed, EXIT_UNAVAILABLE without."""
        from repro.analysis.typing_gate import EXIT_UNAVAILABLE, mypy_available

        code = main(["typecheck"])
        if mypy_available():
            assert code in (0, 1, 2)
        else:
            assert code == EXIT_UNAVAILABLE
            assert "mypy" in capsys.readouterr().out

    def test_serve_faulted_service_exits_nonzero(self, monkeypatch):
        """A faulted run must surface as a one-line diagnostic and a
        nonzero exit, not a metrics table from a broken service."""
        import repro.service.driver as driver
        from repro.service.server import ServiceFaulted

        def faulted_run(*args, **kwargs):
            failure = ServiceFaulted("service faulted during run")
            failure.__cause__ = RuntimeError("solver exploded")
            raise failure

        monkeypatch.setattr(driver, "run_service", faulted_run)
        with pytest.raises(SystemExit, match="service faulted"):
            main(["serve", "--horizon", "5"])


class TestServeJson:
    def test_serve_json_emits_one_object(self, capsys):
        assert main([
            "serve", "--horizon", "30", "--seed", "3", "--rate", "0.5", "--json",
        ]) == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["allocated"] > 0
        assert "wait_histogram" in doc
        assert set(doc["wait_percentiles"]) == {"p50", "p90", "p99", "p999"}

    def test_serve_json_matches_table_run(self, capsys):
        """--json and the table view come from the same snapshot."""
        import json

        argv = ["serve", "--horizon", "30", "--seed", "3", "--rate", "0.5"]
        assert main(argv + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert "allocated" in table
        assert str(doc["allocated"]) in table


class TestWireCommands:
    def test_wire_serve_and_loadgen_end_to_end(self, capsys):
        """Both halves of the two-terminal quickstart, in one process:
        wire-serve on a real port in a thread, loadgen against it."""
        import json
        import socket
        import threading
        import time

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        server_rc = []
        server = threading.Thread(
            target=lambda: server_rc.append(main([
                "wire-serve", "--network", "omega", "--ports", "8",
                "--port", str(port), "--tick", "0.005",
                "--duration", "1.5", "--fault-rate", "2.0", "--seed", "11",
                "--json",
            ]))
        )
        server.start()
        try:
            time.sleep(0.4)  # let the server bind and print its address
            rc = main([
                "loadgen", "--port", str(port), "--rate", "150",
                "--duration", "0.5", "--processors", "8",
                "--seed", "5", "--connections", "2", "--json",
            ])
        finally:
            server.join(timeout=10)
        assert rc == 0
        assert server_rc == [0]
        out = capsys.readouterr().out
        assert "listening on" in out
        documents = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert len(documents) == 2
        loadgen_doc = next(d for d in documents if "throughput_per_sec" in d)
        serve_doc = next(d for d in documents if "wire" in d)
        assert loadgen_doc["completed"] > 0
        assert loadgen_doc["errors"] == 0
        assert set(loadgen_doc["latency_ms"]) == {"p50", "p90", "p99", "p999"}
        assert serve_doc["wire"]["protocol_errors"] == 0
        assert serve_doc["wire"]["leases_granted"] >= loadgen_doc["completed"]
        assert serve_doc["active_leases"] == 0

    def test_loadgen_unreachable_server_is_clear_error(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            main([
                "loadgen", "--port", "1", "--rate", "10",
                "--duration", "0.1", "--processors", "4",
            ])

    def test_loadgen_rejects_bad_config(self):
        with pytest.raises(SystemExit, match="rate"):
            main(["loadgen", "--port", "1", "--rate", "0"])

    def test_wire_serve_rejects_bad_config(self):
        with pytest.raises(SystemExit, match="tick_interval"):
            main(["wire-serve", "--tick", "0", "--duration", "0.1"])

    def test_wire_serve_on_a_taken_port_is_one_line(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            with pytest.raises(SystemExit, match=f"error: cannot listen on 127.0.0.1:{port}"):
                main(["wire-serve", "--ports", "8", "--port", str(port), "--duration", "0.1"])


class TestFabricCommands:
    @pytest.mark.parametrize("verb", ["fabric-serve", "fabric-serve --kill-cell 1"])
    @pytest.mark.parametrize(
        "flags,complaint",
        [
            ("--network omega --ports 6", "power of two"),
            ("--network clos --ports 7", "6x6"),
            ("--spill-after 0", "spill_after"),
            ("--group-size 0", "group_size"),
            ("--uplink 0", "uplink"),
            ("--trunk -1", "trunk"),
        ],
    )
    def test_unrunnable_fabric_is_a_one_line_error(
        self, verb, flags, complaint, monkeypatch
    ):
        """A fabric shape that cannot run exits like ``repro serve``
        does — one ``error:`` line, nonzero status — and before any
        cell process exists, not with a traceback out of ``run_fabric``
        (or, for an unbuildable cell network, an all-zero table and
        exit 0 after every cell died)."""
        from repro.fabric.broker import FabricBroker

        def no_spawn(self):
            raise AssertionError("a cell process was about to be spawned")

        monkeypatch.setattr(FabricBroker, "start", no_spawn)
        with pytest.raises(SystemExit, match=complaint) as exit_info:
            main([*verb.split(), *flags.split()])
        message = exit_info.value.code  # a str: printed to stderr, status 1
        assert isinstance(message, str)
        assert message.startswith("error: ") and "\n" not in message


    def test_fabric_serve_plays_a_cell_kill(self, capsys):
        argv = (
            "fabric-serve --cells 3 --ports 8 --rounds 12 --ticks-per-round 6 "
            "--max-hold 10 --seed 5 --kill-cell 1 --kill-round 4 --rejoin-round 8"
        )
        assert main(argv.split()) == 0
        out = capsys.readouterr().out
        assert "kill cell 1 @ round 4" in out
        rows = dict(
            (cell.strip() for cell in line.split("|"))
            for line in out.splitlines() if "|" in line
        )
        assert rows["cells_killed"] == rows["cells_rejoined"] == "1"
        assert int(rows["leases revoked at kill"]) == int(rows["revoked_on_death"]) > 0
        assert int(rows["grants during outage"]) > 0


def test_scheduler_handles_rendered_instance():
    """Rendering must not disturb scheduling state."""
    m = MRSIN(omega(8))
    m.submit(Request(0))
    render_network(m.network)
    mapping = OptimalScheduler().schedule(m)
    assert len(mapping) == 1


def test_report_command(capsys):
    assert main(["report", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "reproduction snapshot" in out
    assert "heuristic blocking" in out
    assert "instances agree" in out


class TestRendererAcrossTopologies:
    @pytest.mark.parametrize("builder_name", ["gamma", "clos", "benes", "crossbar"])
    def test_render_handles_rectangular_boxes(self, builder_name):
        net = TOPOLOGIES[builder_name](8)
        text = render_network(net)
        assert text.count("\n") == net.n_processors - 1
        # Establish something and re-render.
        path = net.find_free_path(0, 3)
        net.establish_circuit(path)
        text2 = render_network(net, busy_resources={3})
        assert "==>" in text2 and "*busy*" in text2
