"""Preset sweeps: topology shape, grid coverage, per-cell results."""

from __future__ import annotations

import pytest

from repro.netsim import (
    MuxNode,
    QueueNode,
    SinkNode,
    multiplexer_preset,
    multiplexer_topology,
    tandem_preset,
    tandem_topology,
)


class TestTopologies:
    def test_tandem_shape(self):
        topo = tandem_topology(utilization=0.9, normalized_buffer=0.1, hops=3)
        kinds = [node.kind for node in topo.nodes]
        assert kinds == ["queue", "queue", "queue", "sink"]
        assert len(topo.flows) == 1
        assert topo.flows[0].route == ("hop1", "hop2", "hop3", "sink")
        queue = topo.nodes[0]
        assert isinstance(queue, QueueNode)
        # Normalized-buffer convention: B = b * c.
        assert queue.buffer == pytest.approx(0.1 * queue.service_rate)

    def test_tandem_service_covers_offered_load(self):
        topo = tandem_topology(utilization=0.8, normalized_buffer=0.1)
        queue = topo.nodes[0]
        source = topo.flows[0].source
        assert queue.service_rate == pytest.approx(source.mean_rate / 0.8)

    def test_mux_shape(self):
        topo = multiplexer_topology(utilization=0.9, normalized_buffer=0.1, sources=5)
        assert [type(node) for node in topo.nodes] == [MuxNode, QueueNode, SinkNode]
        assert len(topo.flows) == 5
        queue = topo.nodes[1]
        per_flow = topo.flows[0].source.mean_rate
        assert queue.service_rate == pytest.approx(5 * per_flow / 0.9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tandem_topology(utilization=0.9, normalized_buffer=0.1, hops=0)
        with pytest.raises(ValueError):
            multiplexer_topology(utilization=0.9, normalized_buffer=0.1, sources=0)


class TestPresetSweeps:
    def test_tandem_preset_covers_grid_and_orders_loss(self):
        report = tandem_preset(
            utilizations=(0.7, 0.9), buffers=(0.1, 0.5),
            duration=20.0, warmup=2.0,
        )
        assert len(report.cells) == 4
        assert [(cell.utilization, cell.normalized_buffer) for cell in report.cells] == [
            (0.7, 0.1), (0.7, 0.5), (0.9, 0.1), (0.9, 0.5),
        ]
        for cell in report.cells:
            assert cell.result.events_processed > 0
        # Higher utilization at the same buffer must not lose less.
        by_cell = {
            (cell.utilization, cell.normalized_buffer):
                cell.result.node_stats["hop1"].loss_rate
            for cell in report.cells
        }
        assert by_cell[(0.9, 0.1)] >= by_cell[(0.7, 0.1)]

    def test_mux_preset_reports_per_node_stats(self):
        report = multiplexer_preset(
            utilizations=(0.9,), buffers=(0.1,), sources=4,
            duration=20.0, warmup=2.0,
        )
        (cell,) = report.cells
        stats = cell.result.node_stats
        assert set(stats) == {"mux", "queue", "sink"}
        assert stats["mux"].lost_work == 0.0
        assert len(cell.result.flow_stats) == 4
        assert report.bottleneck(cell) == "queue"

    def test_format_table_renders_every_cell(self):
        report = tandem_preset(
            utilizations=(0.9,), buffers=(0.1, 0.5), duration=10.0, warmup=1.0,
        )
        text = report.format_table()
        assert "Tandem preset" in text
        assert "loss_rate" in text and "delay_s" in text
        # Header + separator + one row per cell.
        assert len(text.splitlines()) == 3 + len(report.cells)
