//! One window clock: every subsystem that reads detection windows — the
//! event tap's `EnergyBooked` events and the observatory's raw samples —
//! closes the same windows with the same energy, even when the event
//! ring is switched off for part of the run and no anomaly detector
//! owns the windows.

use ahbpower::telemetry::{EventBus, EventKind, ObservatoryConfig, TelemetryConfig};
use ahbpower::{AnalysisConfig, PowerSession};
use ahbpower_workloads::PaperTestbench;

const CYCLES: u64 = 10_000;
/// The default window: no detector configures another one.
const WINDOW_CYCLES: u64 = 1_000;

#[test]
fn energy_booked_events_match_observatory_windows_across_a_ring_outage() {
    let cfg = AnalysisConfig::paper_testbench();
    let ring = EventBus::shared(1 << 16);
    let tcfg = TelemetryConfig::enabled("window_clock")
        .with_observatory(ObservatoryConfig::default())
        .with_events(ring.clone());
    let mut session = PowerSession::with_telemetry(&cfg, tcfg);
    let mut bus = PaperTestbench::sized_for(12_000, 7)
        .build()
        .expect("paper testbench builds");

    session.run(&mut bus, 2_500);
    ring.set_enabled(false);
    session.run(&mut bus, 2_500);
    ring.set_enabled(true);
    session.run(&mut bus, CYCLES - 5_000);

    let telemetry = session.telemetry().expect("telemetry enabled");
    let obs = telemetry.observatory().expect("observatory attached");
    assert_eq!(obs.window_cycles(), WINDOW_CYCLES);
    assert_eq!(obs.windows_ingested(), CYCLES / WINDOW_CYCLES);

    let booked: Vec<_> = ring
        .read_since(0, usize::MAX)
        .events
        .into_iter()
        .filter(|e| e.kind == EventKind::EnergyBooked)
        .collect();
    for e in &booked {
        assert_eq!(e.cycle, e.window * WINDOW_CYCLES, "window {}", e.window);
        let q = obs
            .query("energy", e.window, e.window, 1)
            .expect("energy series");
        assert_eq!(q.points.len(), 1, "window {} retained", e.window);
        assert_eq!(
            e.a.to_bits(),
            q.points[0].last.to_bits(),
            "window {}: EnergyBooked {} vs observatory {}",
            e.window,
            e.a,
            q.points[0].last
        );
    }
    // Windows 2, 3 and 4 close at cycles 3,000, 4,000 and 5,000, while
    // the ring is off; every other window is published.
    let windows: Vec<u64> = booked.iter().map(|e| e.window).collect();
    assert_eq!(windows, vec![0, 1, 5, 6, 7, 8, 9]);
}
