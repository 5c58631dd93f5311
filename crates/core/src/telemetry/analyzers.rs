//! Publishers: fold analysis-layer state into the metrics registry.
//!
//! Each function here takes an accumulator that was filled during the run
//! (the bus-performance analyzer, the power FSM's ledgers, span sets, the
//! kernel profile) and registers/updates the corresponding metrics. They
//! run once at the end of a session, off the hot path.

use ahbpower_ahb::BusPerfAnalyzer;
use ahbpower_sim::{KernelProfile, KernelStats};

use crate::power_fsm::PowerFsm;
use crate::telemetry::registry::MetricsRegistry;
use crate::telemetry::span::SpanSet;

/// Publishes bus-performance counters and histograms:
/// `ahb_cycles_total`, per-master grant/wait/transfer counters,
/// `ahb_arbitration_latency_cycles`, `ahb_burst_beats`,
/// `ahb_handovers_total` and the utilization/handover-rate gauges.
pub fn publish_bus_perf(reg: &mut MetricsRegistry, perf: &BusPerfAnalyzer) {
    let c = reg.counter("ahb_cycles_total", "Bus clock cycles observed.", &[]);
    reg.add(c, perf.cycles() as f64);
    let c = reg.counter("ahb_handovers_total", "Bus ownership changes.", &[]);
    reg.add(c, perf.handovers() as f64);
    let c = reg.counter(
        "ahb_idle_cycles_total",
        "Cycles with an IDLE address phase.",
        &[],
    );
    reg.add(c, perf.idle_cycles() as f64);

    for (i, m) in perf.masters().iter().enumerate() {
        let label = i.to_string();
        let labels = [("master", label.as_str())];
        let c = reg.counter(
            "ahb_master_grant_cycles_total",
            "Cycles each master owned the address phase.",
            &labels,
        );
        reg.add(c, m.grant_cycles as f64);
        let c = reg.counter(
            "ahb_master_transfers_total",
            "Data transfers each master completed with OKAY.",
            &labels,
        );
        reg.add(c, m.transfers_ok as f64);
        let c = reg.counter(
            "ahb_master_wait_cycles_total",
            "Wait-state cycles inserted into each master's data phases.",
            &labels,
        );
        reg.add(c, m.wait_cycles as f64);
        let c = reg.counter(
            "ahb_master_request_wait_cycles_total",
            "Cycles each master spent requesting the bus without owning it.",
            &labels,
        );
        reg.add(c, m.request_wait_cycles as f64);
    }

    let lat = perf.arbitration_latency();
    let h = reg.histogram(
        "ahb_arbitration_latency_cycles",
        "Cycles from HBUSREQ assertion to the first owning cycle.",
        &[],
        lat.bounds(),
    );
    reg.set_histogram(h, lat);
    let beats = perf.burst_beats();
    let h = reg.histogram(
        "ahb_burst_beats",
        "Beats per completed transaction (burst or single transfer).",
        &[],
        beats.bounds(),
    );
    reg.set_histogram(h, beats);

    let g = reg.gauge(
        "ahb_bus_utilization_ratio",
        "Fraction of cycles that completed a data transfer.",
        &[],
    );
    reg.set(g, perf.utilization());
    let g = reg.gauge("ahb_handover_rate", "Bus handovers per cycle.", &[]);
    reg.set(g, perf.handover_rate());
}

/// Publishes the power FSM's ledgers: per-instruction energy totals and
/// execution counts (Table 1), per-block energy (Fig. 6), per-master
/// attribution and the grand total, all in joules.
pub fn publish_power(reg: &mut MetricsRegistry, fsm: &PowerFsm) {
    for row in fsm.ledger().rows() {
        let name = row.instruction.name();
        let labels = [("instruction", name.as_str())];
        let c = reg.counter(
            "power_instruction_energy_joules_total",
            "Energy booked per AHB instruction (Table 1).",
            &labels,
        );
        reg.add(c, row.total);
        let c = reg.counter(
            "power_instruction_executions_total",
            "Executions per AHB instruction (Table 1).",
            &labels,
        );
        reg.add(c, row.count as f64);
        let g = reg.gauge(
            "power_instruction_energy_joules_avg",
            "Average energy per execution of each AHB instruction.",
            &labels,
        );
        reg.set(g, row.average);
    }
    for (block, energy, _share) in fsm.blocks().shares() {
        let c = reg.counter(
            "power_block_energy_joules_total",
            "Energy per structural sub-block (Fig. 6).",
            &[("block", block)],
        );
        reg.add(c, energy);
    }
    for (i, &e) in fsm.per_master_energy().iter().enumerate() {
        let label = i.to_string();
        let c = reg.counter(
            "power_master_energy_joules_total",
            "Energy attributed to each master's transfers.",
            &[("master", label.as_str())],
        );
        reg.add(c, e);
    }
    let c = reg.counter(
        "power_total_energy_joules",
        "Total bus energy booked by the power FSM.",
        &[],
    );
    reg.add(c, fsm.total_energy());
}

/// Publishes a [`SpanSet`] as `telemetry_span_seconds_total` /
/// `telemetry_span_invocations_total`, labelled by span name.
pub fn publish_spans(reg: &mut MetricsRegistry, spans: &SpanSet) {
    for (name, stat) in spans.iter() {
        let labels = [("span", name)];
        let c = reg.counter(
            "telemetry_span_seconds_total",
            "Wall-clock time spent inside each instrumented span.",
            &labels,
        );
        reg.add(c, stat.total.as_secs_f64());
        let c = reg.counter(
            "telemetry_span_invocations_total",
            "Executions of each instrumented span.",
            &labels,
        );
        reg.add(c, stat.count as f64);
    }
}

/// Publishes a kernel run's statistics and (when profiling was enabled)
/// its wall-clock profile. `process_names[i]` labels process `i`; missing
/// entries fall back to `process_<i>`.
pub fn publish_kernel(
    reg: &mut MetricsRegistry,
    stats: &KernelStats,
    profile: Option<&KernelProfile>,
    process_names: &[&str],
) {
    let c = reg.counter("sim_kernel_deltas_total", "Delta cycles executed.", &[]);
    reg.add(c, stats.deltas as f64);
    let c = reg.counter(
        "sim_kernel_activations_total",
        "Process activations across the run.",
        &[],
    );
    reg.add(c, stats.activations as f64);
    let c = reg.counter(
        "sim_kernel_signal_changes_total",
        "Committed signal value changes.",
        &[],
    );
    reg.add(c, stats.signal_changes as f64);

    let Some(p) = profile else { return };
    let c = reg.counter(
        "sim_kernel_delta_seconds_total",
        "Wall-clock time inside timed delta cycles.",
        &[],
    );
    reg.add(c, p.delta.total.as_secs_f64());
    let c = reg.counter(
        "sim_kernel_update_seconds_total",
        "Wall-clock time inside update-and-notify phases.",
        &[],
    );
    reg.add(c, p.update.total.as_secs_f64());
    for (i, stat) in p.per_process.iter().enumerate() {
        if stat.count == 0 {
            continue;
        }
        let fallback;
        let name = match process_names.get(i) {
            Some(n) => *n,
            None => {
                fallback = format!("process_{i}");
                fallback.as_str()
            }
        };
        let labels = [("process", name)];
        let c = reg.counter(
            "sim_process_activations_total",
            "Activations per kernel process.",
            &labels,
        );
        reg.add(c, stat.count as f64);
        let c = reg.counter(
            "sim_process_busy_seconds_total",
            "Wall-clock time per kernel process body.",
            &labels,
        );
        reg.add(c, stat.total.as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use ahbpower_ahb::{AddressMap, AhbBusBuilder, MemorySlave, Op, ScriptedMaster};

    use crate::config::AnalysisConfig;
    use crate::model::AhbPowerModel;

    #[test]
    fn bus_perf_metrics_land_in_registry() {
        let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(1, 0x1000))
            .master(Box::new(ScriptedMaster::new(vec![
                Op::write(0x0, 1),
                Op::read(0x0),
            ])))
            .slave(Box::new(MemorySlave::new(0x1000, 1, 0)))
            .build()
            .unwrap();
        let mut decoder = ahbpower_ahb::PhaseDecoder::new(1);
        let mut perf = BusPerfAnalyzer::new(1);
        for _ in 0..30 {
            let snap = bus.step();
            perf.observe(snap, &decoder.decode(snap));
        }
        perf.finish(decoder.finish());
        let mut reg = MetricsRegistry::new();
        publish_bus_perf(&mut reg, &perf);
        assert_eq!(reg.counter_value("ahb_cycles_total", &[]), Some(30.0));
        assert_eq!(
            reg.counter_value("ahb_master_transfers_total", &[("master", "0")]),
            Some(2.0)
        );
        assert!(
            reg.counter_value("ahb_master_wait_cycles_total", &[("master", "0")])
                .unwrap()
                > 0.0
        );
        assert!(reg
            .histogram_by_name("ahb_arbitration_latency_cycles", &[])
            .is_some());
        assert!(reg.gauge_value("ahb_bus_utilization_ratio", &[]).unwrap() > 0.0);
    }

    #[test]
    fn power_metrics_match_fsm_totals() {
        let cfg = AnalysisConfig {
            n_masters: 1,
            n_slaves: 1,
            ..AnalysisConfig::paper_testbench()
        };
        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        let mut fsm = PowerFsm::new(model);
        let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(1, 0x1000))
            .master(Box::new(ScriptedMaster::new(vec![
                Op::write(0x0, 0xFFFF),
                Op::read(0x0),
            ])))
            .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
            .build()
            .unwrap();
        for _ in 0..30 {
            fsm.observe(bus.step());
        }
        let mut reg = MetricsRegistry::new();
        publish_power(&mut reg, &fsm);
        let total = reg.counter_value("power_total_energy_joules", &[]).unwrap();
        assert!((total - fsm.total_energy()).abs() < 1e-18);
        // Instruction totals sum to the grand total.
        let by_instruction: f64 = reg
            .counters()
            .iter()
            .filter(|c| c.meta.name == "power_instruction_energy_joules_total")
            .map(|c| c.value)
            .sum();
        assert!((by_instruction - total).abs() < 1e-15 * total.max(1e-30));
    }

    #[test]
    fn spans_and_kernel_stats_publish() {
        let mut spans = SpanSet::new();
        let id = spans.register("observe");
        spans.record(id, Duration::from_millis(2));
        let mut reg = MetricsRegistry::new();
        publish_spans(&mut reg, &spans);
        assert_eq!(
            reg.counter_value("telemetry_span_invocations_total", &[("span", "observe")]),
            Some(1.0)
        );

        let stats = KernelStats {
            deltas: 10,
            activations: 7,
            signal_changes: 4,
        };
        let mut profile = KernelProfile::new();
        profile.delta.record(Duration::from_micros(5));
        profile.process_mut(1).record(Duration::from_micros(3));
        publish_kernel(&mut reg, &stats, Some(&profile), &["ahb_bus"]);
        assert_eq!(
            reg.counter_value("sim_kernel_deltas_total", &[]),
            Some(10.0)
        );
        // Process 1 has no name supplied -> falls back to process_1.
        assert_eq!(
            reg.counter_value("sim_process_activations_total", &[("process", "process_1")]),
            Some(1.0)
        );
    }
}
