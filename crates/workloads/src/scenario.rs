//! Composite scenarios for the extension experiments.

use ahbpower_ahb::{
    AddressMap, AhbBus, AhbBusBuilder, Arbitration, HBurst, IdleMaster, MasterId, MemorySlave, Op,
    ScriptedMaster,
};

use crate::error::WorkloadError;
use crate::gen::{cpu_ops, dma_ops, stream_ops};

/// An SoC-flavoured scenario: a CPU-like master, a DMA engine and a
/// streaming producer contending for three memory slaves — the kind of
/// architecture-exploration setup the paper motivates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocScenario {
    /// Workload seed.
    pub seed: u64,
    /// CPU accesses.
    pub cpu_accesses: u32,
    /// DMA blocks.
    pub dma_blocks: u32,
    /// Stream frames.
    pub stream_frames: u32,
    /// Wait states of the memory slaves.
    pub wait_states: u32,
    /// Arbitration policy.
    pub arbitration: Arbitration,
}

impl Default for SocScenario {
    fn default() -> Self {
        SocScenario {
            seed: 7,
            cpu_accesses: 200,
            dma_blocks: 24,
            stream_frames: 32,
            wait_states: 1,
            arbitration: Arbitration::FixedPriority,
        }
    }
}

impl SocScenario {
    /// Masters on the bus (CPU, DMA, stream, default).
    pub const N_MASTERS: usize = 4;
    /// Slaves on the bus.
    pub const N_SLAVES: usize = 3;
    /// Bytes per slave window.
    pub const WINDOW: u32 = 0x4000;

    /// The address map the scenario decodes against.
    pub fn address_map(&self) -> AddressMap {
        AddressMap::evenly_spaced(Self::N_SLAVES, Self::WINDOW)
    }

    /// The op scripts of the three traffic masters, in master order
    /// (CPU, DMA, stream). Static analyzers lint these without a bus; they
    /// are collected from the same streams [`SocScenario::build`] compiles
    /// into its masters.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Gen`] if any generator rejects the
    /// scenario's parameters.
    pub fn scripts(&self) -> Result<Vec<Vec<Op>>, WorkloadError> {
        let (cpu, dma, stream) = self.streams()?;
        Ok(vec![cpu.collect(), dma.collect(), stream.collect()])
    }

    /// The traffic masters' op streams: CPU, DMA, stream.
    fn streams(
        &self,
    ) -> Result<
        (
            impl Iterator<Item = Op>,
            impl Iterator<Item = Op>,
            impl Iterator<Item = Op>,
        ),
        WorkloadError,
    > {
        let w = Self::WINDOW;
        let cpu = cpu_ops(self.seed, self.cpu_accesses, 0, w)?;
        let dma = dma_ops(
            self.seed ^ 0xD0A,
            self.dma_blocks,
            w,     // source: slave 1
            2 * w, // destination: slave 2
            HBurst::Incr8,
        )?;
        let stream = stream_ops(self.seed ^ 0x57E, self.stream_frames, 2 * w + 0x2000, 6)?;
        Ok((cpu, dma, stream))
    }

    /// Builds the bus. Each master compiles its script straight from the
    /// generator's stream.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if script generation or the bus build
    /// rejects the configuration (cannot occur for the default config).
    pub fn build(&self) -> Result<AhbBus, WorkloadError> {
        let (cpu, dma, stream) = self.streams()?;
        self.assemble([
            ScriptedMaster::new(cpu),
            ScriptedMaster::new(dma),
            ScriptedMaster::new(stream),
        ])
    }

    /// The bus around the three traffic masters (CPU, DMA, stream).
    fn assemble(&self, [cpu, dma, stream]: [ScriptedMaster; 3]) -> Result<AhbBus, WorkloadError> {
        let slave = || Box::new(MemorySlave::new(Self::WINDOW as usize, self.wait_states, 0));
        let bus = AhbBusBuilder::new(self.address_map())
            .arbitration(self.arbitration)
            .default_master(MasterId(3))
            .master(Box::new(cpu))
            .master(Box::new(dma))
            .master(Box::new(stream))
            .master(Box::new(IdleMaster::new()))
            .slave(slave())
            .slave(slave())
            .slave(slave())
            .build()?;
        Ok(bus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahbpower_ahb::ProtocolChecker;

    #[test]
    fn soc_scenario_runs_clean_under_checker() {
        let sc = SocScenario::default();
        let mut bus = sc.build().unwrap();
        let mut checker = ProtocolChecker::new();
        let mut cycles = 0u64;
        while cycles < 100_000 && !bus.all_masters_done() {
            checker.check(bus.step());
            cycles += 1;
        }
        assert!(bus.all_masters_done(), "scenario did not finish");
        assert!(
            checker.violations().is_empty(),
            "violations: {:?}",
            &checker.violations()[..checker.violations().len().min(5)]
        );
        assert!(bus.stats().transfers_ok > 500);
    }

    #[test]
    fn streamed_build_matches_the_collected_scripts() {
        let seeded = |seed| SocScenario {
            seed,
            ..SocScenario::default()
        };
        for sc in [SocScenario::default(), seeded(11), seeded(2003)] {
            let mut streamed = sc.build().unwrap();
            let scripts: [Vec<Op>; 3] = sc.scripts().unwrap().try_into().unwrap();
            let mut collected = sc.assemble(scripts.map(ScriptedMaster::new)).unwrap();
            for cycle in 0..20_000 {
                assert_eq!(
                    streamed.step(),
                    collected.step(),
                    "seed {} cycle {cycle}",
                    sc.seed
                );
            }
            assert_eq!(streamed.stats(), collected.stats(), "seed {}", sc.seed);
        }
    }

    #[test]
    fn round_robin_spreads_grants() {
        let sc = SocScenario {
            arbitration: Arbitration::RoundRobin,
            ..SocScenario::default()
        };
        let mut bus = sc.build().unwrap();
        bus.run_until_done(100_000);
        let counts = bus.arbiter().grant_counts();
        // The three traffic masters all got the bus.
        assert!(counts[0] > 0 && counts[1] > 0 && counts[2] > 0);
    }

    #[test]
    fn wait_states_slow_the_scenario_down() {
        let fast = SocScenario {
            wait_states: 0,
            ..SocScenario::default()
        };
        let slow = SocScenario {
            wait_states: 3,
            ..SocScenario::default()
        };
        let mut bus_fast = fast.build().unwrap();
        let mut bus_slow = slow.build().unwrap();
        let n_fast = bus_fast.run_until_done(200_000);
        let n_slow = bus_slow.run_until_done(200_000);
        assert!(n_slow > n_fast, "{n_slow} vs {n_fast}");
        assert_eq!(
            bus_fast.stats().transfers_ok,
            bus_slow.stats().transfers_ok,
            "same work, different duration"
        );
    }
}
