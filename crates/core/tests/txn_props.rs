//! Property tests for the transaction tracer on hostile input: arbitrary
//! snapshot streams, including HMASTER values beyond the configured
//! master count, any HSEL word and protocol-violating HTRANS/HREADY
//! sequences, with arbitrary finite per-cycle energies. The tracer must
//! never panic, must attribute every cycle exactly once, must conserve
//! the energy it was fed, must report its cells in key order and must
//! never complete more transactions than address phases it accepted.
//! Its attribution table must match a sorted-map model cell for cell.

use std::collections::BTreeMap;

use ahbpower::{
    AttributionTable, BlockEnergy, CycleRecord, Instruction, TxnTracer, INSTRUCTION_COUNT,
};
use ahbpower_ahb::{BusSnapshot, HBurst, HResp, HSize, HTrans, MasterId, SlaveId};
use proptest::prelude::*;

const REL_TOL: f64 = 1e-9;

/// A non-negative finite energy over many magnitudes, zero included.
fn energy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), any::<f64>().prop_map(f64::abs)]
}

/// One cycle: wires drawn with no regard for the protocol, plus the
/// power FSM's record for it.
fn cycle() -> impl Strategy<Value = (BusSnapshot, CycleRecord)> {
    (
        (0u8..4, any::<bool>(), 0u8..4, any::<u8>(), any::<u32>()),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            0u8..8,
        ),
        (0..INSTRUCTION_COUNT, energy(), energy(), energy(), energy()),
    )
        .prop_map(
            |(
                (trans, hready, resp, hmaster, hsel),
                (haddr, hbusreq, hgrant, hwrite, burst),
                (instr, dec, m2s, s2m, arb),
            )| {
                let snap = BusSnapshot {
                    cycle: 0,
                    haddr,
                    htrans: [HTrans::Idle, HTrans::Busy, HTrans::NonSeq, HTrans::Seq]
                        [trans as usize],
                    hwrite,
                    hsize: HSize::Word,
                    hburst: [
                        HBurst::Single,
                        HBurst::Incr,
                        HBurst::Wrap4,
                        HBurst::Incr4,
                        HBurst::Wrap8,
                        HBurst::Incr8,
                        HBurst::Wrap16,
                        HBurst::Incr16,
                    ][burst as usize],
                    hwdata: 0,
                    hrdata: 0,
                    hready,
                    hresp: [HResp::Okay, HResp::Error, HResp::Retry, HResp::Split][resp as usize],
                    hmaster: MasterId(hmaster),
                    hmastlock: false,
                    hbusreq,
                    hgrant,
                    hsel,
                };
                let rec = CycleRecord {
                    instruction: Instruction::from_index(instr),
                    energy: BlockEnergy { dec, m2s, s2m, arb },
                    word: 0,
                };
                (snap, rec)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tracer_survives_arbitrary_streams(
        stream in proptest::collection::vec(cycle(), 0..400),
        n_masters in 1usize..5,
        ring_capacity in 1usize..8,
    ) {
        let mut tracer = TxnTracer::new(n_masters, ring_capacity);
        let mut fed = 0.0;
        let mut accepted_nonseqs = 0u64;
        for (i, (snap, rec)) in stream.iter().enumerate() {
            let snap = BusSnapshot { cycle: i as u64, ..*snap };
            tracer.observe(&snap, rec);
            fed += rec.energy.total();
            accepted_nonseqs += u64::from(snap.htrans == HTrans::NonSeq && snap.hready);
        }
        tracer.finish();

        let table = tracer.attribution();
        prop_assert_eq!(table.cycles(), stream.len() as u64);
        let attributed = table.total_energy();
        prop_assert!(
            (attributed - fed).abs() <= REL_TOL * fed,
            "attributed {} vs fed {}",
            attributed,
            fed
        );
        let keys: Vec<_> = table
            .rows()
            .iter()
            .map(|r| (r.master.0, r.slave.map(|s| s.0), r.instruction.index()))
            .collect();
        for pair in keys.windows(2) {
            prop_assert!(pair[0] < pair[1], "rows out of key order: {:?}", pair);
        }
        prop_assert_eq!(keys.len(), table.len());
        prop_assert!(
            tracer.completed() <= accepted_nonseqs,
            "{} completions from {} accepted NONSEQs",
            tracer.completed(),
            accepted_nonseqs
        );
    }

    #[test]
    fn attribution_matches_a_sorted_map_model(
        records in proptest::collection::vec(
            (any::<u8>(), 0u8..33, 0..INSTRUCTION_COUNT, energy()),
            0..300,
        ),
    ) {
        let mut table = AttributionTable::new();
        let mut model: BTreeMap<(u8, Option<u8>, usize), BlockEnergy> = BTreeMap::new();
        for &(master, slave, instr, joules) in &records {
            // Slaves 0..=31 are the HSEL lines; 32 stands for "no slave".
            let slave = (slave < 32).then_some(slave);
            let energy = BlockEnergy { dec: joules, m2s: 2.0 * joules, s2m: 0.0, arb: joules };
            table.record(
                MasterId(master),
                slave.map(SlaveId),
                Instruction::from_index(instr),
                energy,
            );
            *model.entry((master, slave, instr)).or_default() += energy;
        }
        let rows: Vec<_> = table
            .rows()
            .iter()
            .map(|r| ((r.master.0, r.slave.map(|s| s.0), r.instruction.index()), r.energy))
            .collect();
        let want: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(rows, want);
        prop_assert_eq!(table.cycles(), records.len() as u64);
    }
}
