//! Op-script generators for the different traffic classes.
//!
//! Every generator returns [`Result`], so malformed scenario parameters
//! surface as [`GenError`]s a caller can report (or convert into
//! [`crate::WorkloadError`]) instead of aborting the process.
//!
//! Each public `try_*_script` collects a crate-private `*_ops` stream:
//! the same validation up front, then a lazy iterator that makes its
//! random draws as it yields ops. The testbenches feed those streams
//! straight into their masters, so a bus build never holds a whole
//! script.

use std::error::Error;
use std::fmt;

use ahbpower_ahb::{HBurst, HSize, Op};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Why a script generator rejected its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// A count parameter (rounds, repeats, blocks, accesses, frames) was
    /// zero; the field names what was missing.
    EmptyCount(&'static str),
    /// The address span cannot hold a single word access.
    AddrSpanTooSmall {
        /// The offending span, bytes.
        span: u32,
    },
    /// The idle range has `max < min`.
    InvertedIdleRange {
        /// Minimum idle cycles requested.
        min: u32,
        /// Maximum idle cycles requested.
        max: u32,
    },
    /// A generated script contained an op the scenario does not allow
    /// (reported by shape validators).
    UnexpectedOp(String),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::EmptyCount(what) => write!(f, "need at least one {what}"),
            GenError::AddrSpanTooSmall { span } => {
                write!(f, "address span must hold a word (got {span} bytes)")
            }
            GenError::InvertedIdleRange { min, max } => {
                write!(f, "idle range is inverted ({min}..={max})")
            }
            GenError::UnexpectedOp(op) => write!(f, "unexpected op {op}"),
        }
    }
}

impl Error for GenError {}

/// The paper's testbench script for one traffic master:
/// "WRITE-READ non-interruptible sequences and IDLE commands, for a random
/// number of times; only in this period a bus handover can occur."
///
/// Each round performs `1..=max_repeat` locked WRITE-READ pairs at random
/// addresses inside `[addr_base, addr_base + addr_span)`, then idles for
/// `idle_min..=idle_max` cycles (releasing the bus).
///
/// # Errors
///
/// Returns [`GenError`] if `rounds == 0`, `max_repeat == 0`,
/// `addr_span < 4`, or `idle_max < idle_min`.
///
/// # Examples
///
/// ```
/// use ahbpower_workloads::try_write_read_script;
///
/// let ops = try_write_read_script(42, 5, 3, 0x0, 0x3000, 2, 6)?;
/// assert!(!ops.is_empty());
/// assert!(try_write_read_script(42, 0, 3, 0x0, 0x3000, 2, 6).is_err());
/// # Ok::<(), ahbpower_workloads::GenError>(())
/// ```
#[allow(clippy::too_many_arguments)]
pub fn try_write_read_script(
    seed: u64,
    rounds: u32,
    max_repeat: u32,
    addr_base: u32,
    addr_span: u32,
    idle_min: u32,
    idle_max: u32,
) -> Result<Vec<Op>, GenError> {
    write_read_ops(
        seed, rounds, max_repeat, addr_base, addr_span, idle_min, idle_max,
    )
    .map(Iterator::collect)
}

/// Validates [`try_write_read_script`]'s parameters and returns its ops as
/// a lazy stream: each op's random draws happen when it is yielded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_read_ops(
    seed: u64,
    rounds: u32,
    max_repeat: u32,
    addr_base: u32,
    addr_span: u32,
    idle_min: u32,
    idle_max: u32,
) -> Result<impl Iterator<Item = Op>, GenError> {
    if rounds == 0 {
        return Err(GenError::EmptyCount("round"));
    }
    if max_repeat == 0 {
        return Err(GenError::EmptyCount("repeat"));
    }
    if addr_span < 4 {
        return Err(GenError::AddrSpanTooSmall { span: addr_span });
    }
    if idle_max < idle_min {
        return Err(GenError::InvertedIdleRange {
            min: idle_min,
            max: idle_max,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rounds_left = rounds;
    // Pairs still to issue in the current round; `None` between rounds.
    let mut pairs_left: Option<u32> = None;
    Ok(std::iter::from_fn(move || {
        let pairs = match pairs_left.as_mut() {
            Some(pairs) => pairs,
            None if rounds_left == 0 => return None,
            None => {
                rounds_left -= 1;
                pairs_left.insert(rng.random_range(1..=max_repeat))
            }
        };
        if *pairs == 0 {
            pairs_left = None;
            return Some(Op::Idle(rng.random_range(idle_min..=idle_max)));
        }
        *pairs -= 1;
        let addr = addr_base + (rng.random_range(0..addr_span / 4)) * 4;
        let value: u32 = rng.random();
        Some(Op::Locked(vec![Op::write(addr, value), Op::read(addr)]))
    }))
}

/// A DMA-style script: block copies as INCR bursts (read burst from source,
/// write burst to destination), separated by short idle gaps.
///
/// # Errors
///
/// Returns [`GenError::EmptyCount`] if `blocks == 0`.
pub fn try_dma_script(
    seed: u64,
    blocks: u32,
    src_base: u32,
    dst_base: u32,
    burst: HBurst,
) -> Result<Vec<Op>, GenError> {
    dma_ops(seed, blocks, src_base, dst_base, burst).map(Iterator::collect)
}

/// Validates [`try_dma_script`]'s parameters and returns its ops as a lazy
/// stream, one block at a time.
pub(crate) fn dma_ops(
    seed: u64,
    blocks: u32,
    src_base: u32,
    dst_base: u32,
    burst: HBurst,
) -> Result<impl Iterator<Item = Op>, GenError> {
    if blocks == 0 {
        return Err(GenError::EmptyCount("block"));
    }
    let beats = burst.beats().unwrap_or(8);
    let mut rng = StdRng::seed_from_u64(seed);
    Ok((0..blocks).flat_map(move |b| {
        let off = b * beats as u32 * 4;
        let read = Op::Burst {
            write: false,
            burst,
            addr: src_base + off,
            data: vec![0; beats],
            size: HSize::Word,
            busy_between: 0,
        };
        let data: Vec<u32> = (0..beats).map(|_| rng.random()).collect();
        let write = Op::Burst {
            write: true,
            burst,
            addr: dst_base + off,
            data,
            size: HSize::Word,
            busy_between: 0,
        };
        [read, write, Op::Idle(rng.random_range(1..4))]
    }))
}

/// A CPU-like script: mostly single reads with occasional writes, mixed
/// transfer sizes, and idle gaps mimicking cache hits.
///
/// # Errors
///
/// Returns [`GenError`] if `accesses == 0` or `addr_span < 4`.
pub fn try_cpu_script(
    seed: u64,
    accesses: u32,
    addr_base: u32,
    addr_span: u32,
) -> Result<Vec<Op>, GenError> {
    cpu_ops(seed, accesses, addr_base, addr_span).map(Iterator::collect)
}

/// Validates [`try_cpu_script`]'s parameters and returns its ops as a lazy
/// stream, one access (and its optional gap) at a time.
pub(crate) fn cpu_ops(
    seed: u64,
    accesses: u32,
    addr_base: u32,
    addr_span: u32,
) -> Result<impl Iterator<Item = Op>, GenError> {
    if accesses == 0 {
        return Err(GenError::EmptyCount("access"));
    }
    if addr_span < 4 {
        return Err(GenError::AddrSpanTooSmall { span: addr_span });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    Ok((0..accesses).flat_map(move |_| {
        let size = match rng.random_range(0..4u8) {
            0 => HSize::Byte,
            1 => HSize::Half,
            _ => HSize::Word,
        };
        let align = size.bytes();
        let addr = addr_base + (rng.random_range(0..addr_span / align)) * align;
        let access = if rng.random_bool(0.3) {
            let mask = match size {
                HSize::Byte => 0xFF,
                HSize::Half => 0xFFFF,
                HSize::Word => 0xFFFF_FFFF,
            };
            Op::Write {
                addr,
                value: rng.random::<u32>() & mask,
                size,
            }
        } else {
            Op::Read { addr, size }
        };
        let gap = rng
            .random_bool(0.5)
            .then(|| Op::Idle(rng.random_range(1..8)));
        [Some(access), gap].into_iter().flatten()
    }))
}

/// A streaming script: periodic fixed-length write bursts (a producer
/// pushing frames), with BUSY pauses inside bursts to model source jitter.
///
/// # Errors
///
/// Returns [`GenError::EmptyCount`] if `frames == 0`.
pub fn try_stream_script(
    seed: u64,
    frames: u32,
    dst_base: u32,
    period_idle: u32,
) -> Result<Vec<Op>, GenError> {
    stream_ops(seed, frames, dst_base, period_idle).map(Iterator::collect)
}

/// Validates [`try_stream_script`]'s parameters and returns its ops as a
/// lazy stream, one frame at a time.
pub(crate) fn stream_ops(
    seed: u64,
    frames: u32,
    dst_base: u32,
    period_idle: u32,
) -> Result<impl Iterator<Item = Op>, GenError> {
    if frames == 0 {
        return Err(GenError::EmptyCount("frame"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    Ok((0..frames).flat_map(move |f| {
        let data: Vec<u32> = (0..8).map(|_| rng.random()).collect();
        let frame = Op::Burst {
            write: true,
            burst: HBurst::Incr8,
            addr: dst_base + (f % 16) * 32,
            data,
            size: HSize::Word,
            busy_between: u32::from(rng.random_bool(0.25)),
        };
        [frame, Op::Idle(period_idle)]
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_script_is_deterministic_per_seed() {
        let a = try_write_read_script(7, 4, 3, 0, 0x1000, 1, 5).unwrap();
        let b = try_write_read_script(7, 4, 3, 0, 0x1000, 1, 5).unwrap();
        let c = try_write_read_script(8, 4, 3, 0, 0x1000, 1, 5).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn write_read_script_shape() {
        let ops = try_write_read_script(1, 3, 2, 0x100, 0x200, 2, 4).unwrap();
        let mut shape_errors: Vec<GenError> = Vec::new();
        // Each round ends with an Idle; pairs are Locked.
        let idles = ops.iter().filter(|o| matches!(o, Op::Idle(_))).count();
        assert_eq!(idles, 3);
        for op in &ops {
            match op {
                Op::Locked(inner) => {
                    assert_eq!(inner.len(), 2);
                    assert!(matches!(inner[0], Op::Write { .. }));
                    assert!(matches!(inner[1], Op::Read { .. }));
                    if let (Op::Write { addr: wa, .. }, Op::Read { addr: ra, .. }) =
                        (&inner[0], &inner[1])
                    {
                        assert_eq!(wa, ra, "read back the written address");
                        assert!(*wa >= 0x100 && *wa < 0x300);
                    }
                }
                Op::Idle(n) => assert!((2..=4).contains(n)),
                other => shape_errors.push(GenError::UnexpectedOp(format!("{other:?}"))),
            }
        }
        assert_eq!(shape_errors, Vec::new());
    }

    #[test]
    fn dma_script_alternates_read_write_bursts() {
        let ops = try_dma_script(3, 2, 0x0, 0x1000, HBurst::Incr8).unwrap();
        assert!(matches!(
            ops[0],
            Op::Burst {
                write: false,
                addr: 0x0,
                ..
            }
        ));
        assert!(matches!(
            ops[1],
            Op::Burst {
                write: true,
                addr: 0x1000,
                ..
            }
        ));
        if let Op::Burst { data, .. } = &ops[1] {
            assert_eq!(data.len(), 8);
        }
    }

    #[test]
    fn cpu_script_addresses_are_aligned() {
        let ops = try_cpu_script(11, 200, 0x2000, 0x800).unwrap();
        let mut shape_errors: Vec<GenError> = Vec::new();
        for op in &ops {
            match op {
                Op::Read { addr, size } | Op::Write { addr, size, .. } => {
                    assert_eq!(addr % size.bytes(), 0, "{addr:#x} {size}");
                    assert!(*addr >= 0x2000 && *addr < 0x2800);
                }
                Op::Idle(_) => {}
                other => shape_errors.push(GenError::UnexpectedOp(format!("{other:?}"))),
            }
        }
        assert_eq!(shape_errors, Vec::new());
    }

    #[test]
    fn stream_script_emits_bursts() {
        let ops = try_stream_script(5, 4, 0x0, 10).unwrap();
        let bursts = ops
            .iter()
            .filter(|o| matches!(o, Op::Burst { write: true, .. }))
            .count();
        assert_eq!(bursts, 4);
    }

    #[test]
    fn inverted_idle_range_rejected() {
        assert!(matches!(
            try_write_read_script(1, 1, 1, 0, 0x100, 5, 2),
            Err(GenError::InvertedIdleRange { min: 5, max: 2 })
        ));
    }

    #[test]
    fn try_variants_surface_errors_instead_of_aborting() {
        assert_eq!(
            try_write_read_script(1, 0, 1, 0, 0x100, 1, 2),
            Err(GenError::EmptyCount("round"))
        );
        assert_eq!(
            try_write_read_script(1, 1, 1, 0, 2, 1, 2),
            Err(GenError::AddrSpanTooSmall { span: 2 })
        );
        let e = try_write_read_script(1, 1, 1, 0, 0x100, 5, 2).unwrap_err();
        assert_eq!(e, GenError::InvertedIdleRange { min: 5, max: 2 });
        assert!(e.to_string().contains("idle range"));
        assert_eq!(
            try_dma_script(1, 0, 0, 0, HBurst::Incr8),
            Err(GenError::EmptyCount("block"))
        );
        assert_eq!(
            try_cpu_script(1, 0, 0, 0x100),
            Err(GenError::EmptyCount("access"))
        );
        assert_eq!(
            try_stream_script(1, 0, 0, 1),
            Err(GenError::EmptyCount("frame"))
        );
        // Valid parameters succeed and are deterministic per seed.
        assert_eq!(
            try_write_read_script(7, 4, 3, 0, 0x1000, 1, 5).unwrap(),
            try_write_read_script(7, 4, 3, 0, 0x1000, 1, 5).unwrap()
        );
    }
}
