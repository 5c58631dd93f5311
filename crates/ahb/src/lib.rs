//! # ahbpower-ahb — a cycle-accurate AMBA 2.0 AHB bus model
//!
//! This crate is the executable specification of the Advanced
//! High-performance Bus that the DATE'03 power-analysis methodology is
//! applied to. It models the protocol at per-cycle wire granularity:
//!
//! - pipelined **address / data phases** with HREADY wait states;
//! - **transfer types** IDLE/BUSY/NONSEQ/SEQ and all **burst** kinds
//!   (SINGLE, INCR, INCR4/8/16, WRAP4/8/16) including the 1 KB rule;
//! - **two-cycle ERROR/RETRY/SPLIT** responses, SPLIT masking in the
//!   arbiter, and locked (non-interruptible) sequences;
//! - a central **arbiter** (fixed-priority or round-robin, with a default
//!   master), **address decoder** with default-slave behaviour, and the
//!   M2S/S2M **multiplexers** implied by the single-bus topology;
//! - a passive [`ProtocolChecker`] that audits every cycle;
//! - a [`PhaseDecoder`] that works out each cycle's pipeline state once
//!   for the passive observers (the [`BusPerfAnalyzer`] and the
//!   `ahbpower` crate's event tap and transaction tracer);
//! - a per-cycle [`BusSnapshot`] of every wire — the hook the `ahbpower`
//!   crate's instrumentation observes (the paper's `get_activity`).
//!
//! ## Quick start
//!
//! ```
//! use ahbpower_ahb::{AddressMap, AhbBusBuilder, MemorySlave, Op, ScriptedMaster};
//!
//! let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(2, 0x1000))
//!     .master(Box::new(ScriptedMaster::new(vec![
//!         Op::write(0x10, 0xCAFE),
//!         Op::read(0x10),
//!     ])))
//!     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
//!     .slave(Box::new(MemorySlave::new(0x1000, 1, 0)))
//!     .build()?;
//! bus.run_until_done(100);
//! let m = bus.master_as::<ScriptedMaster>(0).expect("master 0 is scripted");
//! assert_eq!(m.reads().next(), Some((0x10, 0xCAFE)));
//! # Ok::<(), ahbpower_ahb::BuildBusError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apb;
mod arbiter;
mod bridge;
mod burst;
mod bus;
mod checker;
mod decoder;
mod lane;
mod master;
mod perf;
mod phase;
mod script;
mod slave;
mod types;
mod vcd;

pub use apb::{ApbBridge, ApbPeripheral, ApbSnapshot, ApbStats, ApbTimer, RegisterFile};
pub use arbiter::{Arbiter, Arbitration};
pub use bridge::{AhbToAhbBridge, PortHandle};
pub use burst::{
    burst_addresses, crosses_1kb_boundary, incr_crosses_1kb_boundary, is_aligned, next_beat_addr,
};
pub use bus::{AhbBus, AhbBusBuilder, BuildBusError, BusStats};
pub use checker::{ProtocolChecker, Rule, Violation};
pub use decoder::{AddrRange, AddressMap, BuildMapError};
pub use lane::{from_lanes, lane_mask, to_lanes};
pub use master::{AhbMaster, IdleMaster, Op, ScriptedMaster};
pub use perf::{
    BusPerfAnalyzer, CycleHistogram, MasterPerf, ARBITRATION_LATENCY_BOUNDS, BURST_BEATS_BOUNDS,
};
pub use phase::{Completion, DataPhase, Phase, PhaseDecoder, Start};
pub use script::{format_ops, parse_ops, ParseOpsError};
pub use slave::{AhbSlave, ErrorSlave, MemorySlave, SplitSlave};
pub use types::{
    pack_wires, AddressPhase, BusSnapshot, HBurst, HResp, HSize, HTrans, MasterId, MasterIn,
    MasterOut, SlaveId, SlaveReply,
};
pub use vcd::BusTracer;
