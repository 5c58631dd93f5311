//! The composed AHB power model: the paper's structural decomposition
//! (arbiter + decoder + M2S mux + S2M mux) driven by per-cycle bus
//! snapshots.

use ahbpower_ahb::BusSnapshot;

use crate::activity::hamming;
use crate::macromodel::{ArbiterModel, BlockEnergy, DecoderModel, MuxModel, TechParams};

/// Bit width of the HADDR path through the M2S mux.
pub const ADDR_BITS: u32 = 32;
/// Bit width of the HWDATA path through the M2S mux.
pub const WDATA_BITS: u32 = 32;
/// Bit width of the control bundle (HTRANS+HWRITE+HSIZE+HBURST).
pub const CTRL_BITS: u32 = 9;
/// Bit width of the HRDATA path through the S2M mux.
pub const RDATA_BITS: u32 = 32;
/// Bit width of the response bundle (HRESP+HREADY).
pub const RESP_BITS: u32 = 3;

/// Names one of the four characterized AHB sub-blocks, for operations
/// that address a single block (coefficient scaling, reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubBlock {
    /// Address decoder.
    Dec,
    /// Masters-to-slaves multiplexer.
    M2s,
    /// Slaves-to-masters multiplexer.
    S2m,
    /// Arbiter FSM.
    Arb,
}

impl SubBlock {
    /// Every sub-block, in ledger order.
    pub const ALL: [SubBlock; 4] = [SubBlock::Dec, SubBlock::M2s, SubBlock::S2m, SubBlock::Arb];

    /// The short lowercase name used in CLIs and exports.
    pub fn name(self) -> &'static str {
        match self {
            SubBlock::Dec => "dec",
            SubBlock::M2s => "m2s",
            SubBlock::S2m => "s2m",
            SubBlock::Arb => "arb",
        }
    }

    /// Parses a short name produced by [`SubBlock::name`].
    pub fn from_name(name: &str) -> Option<SubBlock> {
        match name {
            "dec" => Some(SubBlock::Dec),
            "m2s" => Some(SubBlock::M2s),
            "s2m" => Some(SubBlock::S2m),
            "arb" => Some(SubBlock::Arb),
            _ => None,
        }
    }
}

impl core::fmt::Display for SubBlock {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The four characterized sub-blocks of the AHB, with per-cycle energy
/// evaluation from consecutive [`BusSnapshot`]s.
///
/// # Examples
///
/// ```
/// use ahbpower::{AhbPowerModel, TechParams};
///
/// let model = AhbPowerModel::new(3, 3, &TechParams::default());
/// assert_eq!(model.m2s.n_inputs, 3);
/// assert_eq!(model.decoder.n_outputs, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AhbPowerModel {
    /// Address decoder model.
    pub decoder: DecoderModel,
    /// Masters-to-slaves multiplexer (address + control + write data).
    pub m2s: MuxModel,
    /// Slaves-to-masters multiplexer (read data + response).
    pub s2m: MuxModel,
    /// Arbiter FSM model.
    pub arbiter: ArbiterModel,
}

impl AhbPowerModel {
    /// Builds the paper-form models for a bus with `n_masters` masters and
    /// `n_slaves` slaves. Counts below 2 are clamped to 2 (the mux/decoder
    /// macromodels need at least two alternatives).
    pub fn new(n_masters: usize, n_slaves: usize, tech: &TechParams) -> Self {
        let n_masters = n_masters.max(2);
        let n_slaves = n_slaves.max(2);
        AhbPowerModel {
            decoder: DecoderModel::from_paper(n_slaves, tech),
            m2s: MuxModel::from_paper_form(ADDR_BITS + CTRL_BITS + WDATA_BITS, n_masters, tech),
            // The S2M mux also selects the built-in default slave.
            s2m: MuxModel::from_paper_form(RDATA_BITS + RESP_BITS, n_slaves + 1, tech),
            arbiter: ArbiterModel::from_paper_form(n_masters, tech),
        }
    }

    /// Replaces the sub-models with fitted variants (same shape).
    pub fn with_models(
        decoder: DecoderModel,
        m2s: MuxModel,
        s2m: MuxModel,
        arbiter: ArbiterModel,
    ) -> Self {
        AhbPowerModel {
            decoder,
            m2s,
            s2m,
            arbiter,
        }
    }

    /// Scales every coefficient of one sub-block's macromodel by
    /// `factor`. This is the anomaly-injection hook: it emulates a
    /// localized energy drift that the on-line detector should flag.
    pub fn scale_block(&mut self, block: SubBlock, factor: f64) {
        match block {
            SubBlock::Dec => self.decoder.scale(factor),
            SubBlock::M2s => self.m2s.scale(factor),
            SubBlock::S2m => self.s2m.scale(factor),
            SubBlock::Arb => self.arbiter.scale(factor),
        }
    }

    /// The energy the bus dissipated during `cur`, given the previous
    /// cycle's wires (all macromodels are driven by Hamming distances
    /// between consecutive values, per the paper).
    /// The direct evaluation: live runs take the same bits from the lookup
    /// tables of [`ReplayEngine`](crate::ReplayEngine), which tests hold to it.
    pub fn cycle_energy(&self, prev: &BusSnapshot, cur: &BusSnapshot) -> BlockEnergy {
        let handover = cur.hmaster != prev.hmaster;
        let addr_hd = hamming(u64::from(prev.haddr), u64::from(cur.haddr));
        let dec = self.decoder.energy(addr_hd);
        let m2s_hd = addr_hd
            + hamming(
                u64::from(prev.control_bits()),
                u64::from(cur.control_bits()),
            )
            + hamming(u64::from(prev.hwdata), u64::from(cur.hwdata));
        let m2s = self.m2s.energy(m2s_hd, handover);
        let s2m_hd = hamming(u64::from(prev.hrdata), u64::from(cur.hrdata))
            + hamming(u64::from(resp_bits(prev)), u64::from(resp_bits(cur)));
        let s2m_sel = cur.hsel_bits() != prev.hsel_bits();
        let s2m = self.s2m.energy(s2m_hd, s2m_sel);
        let hd_req = hamming(u64::from(prev.hbusreq), u64::from(cur.hbusreq));
        let arb = self.arbiter.energy(hd_req, handover);
        BlockEnergy { dec, m2s, s2m, arb }
    }
}

/// Packs HRESP and HREADY into a small integer for Hamming distances.
/// Crate-visible so the activity word packs the identical bundle.
pub(crate) fn resp_bits(s: &BusSnapshot) -> u32 {
    u32::from(s.hresp.bits()) | (u32::from(s.hready) << 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahbpower_ahb::{HBurst, HResp, HSize, HTrans, MasterId};

    fn snap() -> BusSnapshot {
        BusSnapshot {
            cycle: 0,
            haddr: 0,
            htrans: HTrans::Idle,
            hwrite: false,
            hsize: HSize::Word,
            hburst: HBurst::Single,
            hwdata: 0,
            hrdata: 0,
            hready: true,
            hresp: HResp::Okay,
            hmaster: MasterId(0),
            hmastlock: false,
            hbusreq: 0b00,
            hgrant: 0b01,
            hsel: 0b000,
        }
    }

    #[test]
    fn identical_cycles_cost_only_the_clock() {
        let m = AhbPowerModel::new(2, 3, &TechParams::default());
        let s = snap();
        let e = m.cycle_energy(&s, &s);
        assert_eq!(e.dec + e.m2s + e.s2m, 0.0, "combinational blocks quiet");
        assert_eq!(e.arb, m.arbiter.e_clock, "clocked arbiter keeps ticking");
    }

    #[test]
    fn address_change_charges_decoder_and_m2s() {
        let m = AhbPowerModel::new(2, 3, &TechParams::default());
        let a = snap();
        let mut b = snap();
        b.haddr = 0xFF;
        let e = m.cycle_energy(&a, &b);
        assert!(e.dec > 0.0);
        assert!(e.m2s > 0.0);
        assert_eq!(e.s2m, 0.0);
        assert_eq!(e.arb, m.arbiter.e_clock);
    }

    #[test]
    fn write_data_charges_m2s_only() {
        let m = AhbPowerModel::new(2, 3, &TechParams::default());
        let a = snap();
        let mut b = snap();
        b.hwdata = 0xFFFF_FFFF;
        let e = m.cycle_energy(&a, &b);
        assert_eq!(e.dec, 0.0);
        assert!(e.m2s > 0.0);
        assert_eq!(e.s2m, 0.0);
    }

    #[test]
    fn read_data_charges_s2m_only() {
        let m = AhbPowerModel::new(2, 3, &TechParams::default());
        let a = snap();
        let mut b = snap();
        b.hrdata = 0xAAAA_AAAA;
        let e = m.cycle_energy(&a, &b);
        assert_eq!(e.dec, 0.0);
        assert_eq!(e.m2s, 0.0);
        assert!(e.s2m > 0.0);
    }

    #[test]
    fn handover_charges_arbiter_and_m2s_select() {
        let m = AhbPowerModel::new(2, 3, &TechParams::default());
        let a = snap();
        let mut b = snap();
        b.hmaster = MasterId(1);
        let e = m.cycle_energy(&a, &b);
        assert!(e.arb > m.arbiter.e_clock, "grant register toggles");
        assert!(e.m2s > 0.0, "M2S select re-path");
    }

    #[test]
    fn request_activity_charges_arbiter() {
        let m = AhbPowerModel::new(2, 3, &TechParams::default());
        let a = snap();
        let mut b = snap();
        b.hbusreq = 0b11;
        let e = m.cycle_energy(&a, &b);
        assert!(e.arb > m.arbiter.e_clock, "request activity adds energy");
        assert_eq!(e.m2s, 0.0);
    }

    #[test]
    fn hsel_change_charges_s2m_select() {
        let m = AhbPowerModel::new(2, 3, &TechParams::default());
        let mut a = snap();
        a.hsel = 0b001;
        let mut b = snap();
        b.hsel = 0b010;
        let e = m.cycle_energy(&a, &b);
        assert!(e.s2m > 0.0);
    }

    #[test]
    fn scale_block_touches_only_the_named_block() {
        let base = AhbPowerModel::new(2, 3, &TechParams::default());
        let a = snap();
        let mut b = snap();
        b.haddr = 0xFF;
        b.hwdata = 0xF0;
        b.hrdata = 0x0F;
        b.hbusreq = 0b11;
        let before = base.cycle_energy(&a, &b);
        for block in SubBlock::ALL {
            let mut m = base.clone();
            m.scale_block(block, 2.0);
            let after = m.cycle_energy(&a, &b);
            let pairs = [
                (SubBlock::Dec, before.dec, after.dec),
                (SubBlock::M2s, before.m2s, after.m2s),
                (SubBlock::S2m, before.s2m, after.s2m),
                (SubBlock::Arb, before.arb, after.arb),
            ];
            for (which, was, now) in pairs {
                if which == block {
                    assert!((now - 2.0 * was).abs() < 1e-18, "{block} should double");
                } else {
                    assert_eq!(now, was, "{which} must not move when {block} scales");
                }
            }
        }
    }

    #[test]
    fn sub_block_names_round_trip() {
        for block in SubBlock::ALL {
            assert_eq!(SubBlock::from_name(block.name()), Some(block));
        }
        assert_eq!(SubBlock::from_name("cpu"), None);
    }

    #[test]
    fn more_flipped_bits_cost_more() {
        let m = AhbPowerModel::new(2, 3, &TechParams::default());
        let a = snap();
        let mut one = snap();
        one.hwdata = 0x1;
        let mut many = snap();
        many.hwdata = 0xFFFF_FFFF;
        assert!(m.cycle_energy(&a, &many).m2s > m.cycle_energy(&a, &one).m2s);
    }
}
