//! The `/proc` control interface of the (enhanced) Linux Kernel Packet
//! Generator.
//!
//! The real pktgen is configured by writing `pgset` command strings into
//! `/proc/net/pktgen/<dev>`; the thesis adds three commands — `dist`,
//! `outl` and `hist` — plus the `PKTSIZE_REAL` / `DIST_READY` flags
//! (Appendix A.2.2). This module parses the same command language into a
//! [`PktgenConfig`] and enforces the same state machine: the distribution
//! must be complete (`DIST_READY`) before `flag PKTSIZE_REAL` succeeds.

use crate::dist::{DistError, TwoStageDist};
use pcs_wire::MacAddr;
use std::net::Ipv4Addr;
use std::num::ParseIntError;
use std::str::FromStr;

/// How packet sizes are chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeSource {
    /// Every packet has the same size (`pkt_size N`), like stock pktgen.
    Fixed(u32),
    /// Sizes follow a two-stage distribution (`flag PKTSIZE_REAL`).
    Distribution(TwoStageDist),
}

/// Generator configuration, mirroring the pktgen procfs parameters used by
/// the thesis' measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct PktgenConfig {
    /// Number of packets per run (`count`). The thesis uses 10⁶.
    pub count: u64,
    /// Artificial inter-packet gap in nanoseconds (`delay`).
    pub delay_ns: u64,
    /// Packet size source.
    pub size: SizeSource,
    /// Source IP (`src_min`).
    pub src_ip: Ipv4Addr,
    /// Destination IP (`dst`).
    pub dst_ip: Ipv4Addr,
    /// Source MAC base (`src_mac`).
    pub src_mac: MacAddr,
    /// Destination MAC (`dst_mac`).
    pub dst_mac: MacAddr,
    /// Cycle the source MAC through this many addresses starting at
    /// `src_mac` (`src_mac_count`); the thesis cycles through 3.
    pub src_mac_count: u64,
    /// UDP source port.
    pub udp_src_port: u16,
    /// UDP destination port.
    pub udp_dst_port: u16,
}

impl Default for PktgenConfig {
    fn default() -> Self {
        // The addressing used for the thesis measurements (§6.3.2).
        PktgenConfig {
            count: 1_000_000,
            delay_ns: 0,
            size: SizeSource::Fixed(1500),
            src_ip: Ipv4Addr::new(192, 168, 10, 100),
            dst_ip: Ipv4Addr::new(192, 168, 10, 12),
            src_mac: MacAddr::ZERO,
            dst_mac: MacAddr::new(0x00, 0x0e, 0x0c, 0x01, 0x02, 0x03),
            src_mac_count: 3,
            udp_src_port: 9,
            udp_dst_port: 9,
        }
    }
}

/// In-flight distribution entry state (between `dist` and the final
/// `outl`/`hist` line).
#[derive(Debug, Clone, Default)]
struct PendingDist {
    precision: u32,
    binsize: u32,
    max_size: u32,
    want_outl: usize,
    want_hist: usize,
    outl: Vec<(u32, u32)>,
    hist: Vec<(u32, u32)>,
}

/// Argument `i` of `command`, called `name` in its errors, parsed at the
/// width of the field it sets: a number the field cannot hold is an
/// error, never truncated.
fn arg<T: FromStr<Err = ParseIntError>>(
    command: &str,
    args: &[&str],
    i: usize,
    name: &str,
) -> Result<T, CmdError> {
    let err = |message: String| CmdError {
        command: command.to_string(),
        message,
    };
    let s = args.get(i).ok_or_else(|| err(format!("missing {name}")))?;
    s.parse()
        .map_err(|e| err(format!("bad number '{s}' for {name}: {e}")))
}

/// The procfs-style control endpoint: feed it `pgset` command strings.
#[derive(Debug, Clone, Default)]
pub struct PktgenControl {
    /// The accumulated configuration.
    pub config: PktgenConfig,
    pending: Option<PendingDist>,
    ready_dist: Option<TwoStageDist>,
    dist_ready: bool,
    pktsize_real: bool,
}

/// A command error, with the offending command echoed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdError {
    /// The command that failed.
    pub command: String,
    /// Why.
    pub message: String,
}

impl core::fmt::Display for CmdError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "pgset \"{}\": {}", self.command, self.message)
    }
}

impl std::error::Error for CmdError {}

impl From<DistError> for CmdError {
    fn from(e: DistError) -> Self {
        CmdError {
            command: String::new(),
            message: e.to_string(),
        }
    }
}

impl PktgenControl {
    /// A control endpoint with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the entered distribution is complete (the `DIST_READY`
    /// flag of the thesis' enhancement).
    pub fn dist_ready(&self) -> bool {
        self.dist_ready
    }

    /// Whether distribution-based sizing is active (`PKTSIZE_REAL`).
    pub fn pktsize_real(&self) -> bool {
        self.pktsize_real
    }

    /// Apply one `pgset` command line.
    pub fn pgset(&mut self, command: &str) -> Result<(), CmdError> {
        let err = |msg: &str| CmdError {
            command: command.to_string(),
            message: msg.to_string(),
        };
        let mut parts = command.split_whitespace();
        let verb = parts.next().ok_or_else(|| err("empty command"))?;
        let args: Vec<&str> = parts.collect();
        match verb {
            "count" => self.config.count = arg(command, &args, 0, "count")?,
            "delay" => self.config.delay_ns = arg(command, &args, 0, "delay")?,
            "pkt_size" => {
                let n: u32 = arg(command, &args, 0, "size")?;
                if !(42..=1514).contains(&n) {
                    return Err(err("pkt_size out of range (42..=1514)"));
                }
                self.config.size = SizeSource::Fixed(n);
                self.pktsize_real = false;
            }
            "dst" => {
                self.config.dst_ip = args
                    .first()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad destination IP"))?;
            }
            "src_min" => {
                self.config.src_ip = args
                    .first()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad source IP"))?;
            }
            "dst_mac" => {
                self.config.dst_mac = args
                    .first()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad destination MAC"))?;
            }
            "src_mac" => {
                self.config.src_mac = args
                    .first()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad source MAC"))?;
            }
            "src_mac_count" => {
                self.config.src_mac_count = arg::<u64>(command, &args, 0, "count")?.max(1);
            }
            "udp_src_port" => self.config.udp_src_port = arg(command, &args, 0, "port")?,
            "udp_dst_port" => self.config.udp_dst_port = arg(command, &args, 0, "port")?,
            // --- the thesis' enhancement (Appendix A.2.2) ---
            "dist" => {
                if args.len() != 5 {
                    return Err(err(
                        "usage: dist <precision> <hist_width> <max_size> <num_outl> <num_hist>",
                    ));
                }
                let precision: u32 = arg(command, &args, 0, "precision")?;
                let binsize: u32 = arg(command, &args, 1, "hist_width")?;
                let max_size: u32 = arg(command, &args, 2, "max_size")?;
                let want_outl: usize = arg(command, &args, 3, "num_outl")?;
                let want_hist: usize = arg(command, &args, 4, "num_hist")?;
                if precision == 0 || binsize == 0 || max_size == 0 {
                    return Err(err("dist parameters must be positive"));
                }
                self.pending = Some(PendingDist {
                    precision,
                    binsize,
                    max_size,
                    want_outl,
                    want_hist,
                    outl: Vec::new(),
                    hist: Vec::new(),
                });
                self.dist_ready = false;
                self.pktsize_real = false;
            }
            "outl" | "hist" => {
                if args.len() != 2 {
                    return Err(err("usage: outl|hist <size> <cells>"));
                }
                let size: u32 = arg(command, &args, 0, "size")?;
                let cells: u32 = arg(command, &args, 1, "cells")?;
                let pending = self
                    .pending
                    .as_mut()
                    .ok_or_else(|| err("no 'dist' command in progress"))?;
                if verb == "outl" {
                    if pending.outl.len() >= pending.want_outl {
                        return Err(err("more outl lines than announced"));
                    }
                    pending.outl.push((size, cells));
                } else {
                    if pending.hist.len() >= pending.want_hist {
                        return Err(err("more hist lines than announced"));
                    }
                    pending.hist.push((size, cells));
                }
                self.check_dist_complete().map_err(|e| CmdError {
                    command: command.to_string(),
                    message: e.message,
                })?;
            }
            "flag" => match args.first().copied() {
                Some("PKTSIZE_REAL") => {
                    // Only succeeds once the distribution is complete —
                    // the DIST_READY gate of the thesis' module.
                    if !self.dist_ready {
                        return Err(err("distribution not ready (DIST_READY unset)"));
                    }
                    let d = self.ready_dist.clone().expect("ready implies built");
                    self.config.size = SizeSource::Distribution(d);
                    self.pktsize_real = true;
                }
                Some(other) => return Err(err(&format!("unknown flag '{other}'"))),
                None => return Err(err("missing flag name")),
            },
            other => return Err(err(&format!("unknown command '{other}'"))),
        }
        Ok(())
    }

    /// The thesis' `check_dist_complete()`: once the announced number of
    /// `outl` and `hist` lines has arrived, build the arrays and set
    /// DIST_READY.
    fn check_dist_complete(&mut self) -> Result<(), CmdError> {
        let done = match &self.pending {
            Some(p) => p.outl.len() == p.want_outl && p.hist.len() == p.want_hist,
            None => false,
        };
        if !done {
            return Ok(());
        }
        let p = self.pending.take().expect("checked above");
        let dist = TwoStageDist::from_entries(p.precision, p.binsize, p.max_size, &p.outl, &p.hist)
            .map_err(|e| CmdError {
                command: String::new(),
                message: e.to_string(),
            })?;
        self.ready_dist = Some(dist);
        self.dist_ready = true;
        Ok(())
    }

    /// Render a complete distribution as the pgset command sequence that
    /// reproduces it (what `createDist -O procfs` emits).
    pub fn render_dist_commands(dist: &TwoStageDist, precision: u32) -> Vec<String> {
        let outl = dist.outlier_entries();
        let hist = dist.bin_entries();
        let mut cmds = Vec::with_capacity(outl.len() + hist.len() + 2);
        cmds.push(format!(
            "dist {} {} {} {} {}",
            precision,
            dist.binsize(),
            dist.max_size(),
            outl.len(),
            hist.len()
        ));
        for (size, cells) in outl {
            cmds.push(format!("outl {size} {cells}"));
        }
        for (size, cells) in hist {
            cmds.push(format!("hist {size} {cells}"));
        }
        cmds.push("flag PKTSIZE_REAL".to_string());
        cmds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistConfig;

    #[test]
    fn basic_parameters() {
        let mut c = PktgenControl::new();
        c.pgset("count 500000").unwrap();
        c.pgset("delay 1200").unwrap();
        c.pgset("pkt_size 64").unwrap();
        c.pgset("dst 192.168.10.12").unwrap();
        c.pgset("src_min 192.168.10.100").unwrap();
        c.pgset("dst_mac 00:0e:0c:01:02:03").unwrap();
        c.pgset("src_mac 00:00:00:00:00:00").unwrap();
        c.pgset("src_mac_count 3").unwrap();
        assert_eq!(c.config.count, 500_000);
        assert_eq!(c.config.delay_ns, 1200);
        assert_eq!(c.config.size, SizeSource::Fixed(64));
        assert_eq!(c.config.src_mac_count, 3);
    }

    #[test]
    fn errors_reported_with_command() {
        let mut c = PktgenControl::new();
        let e = c.pgset("pkt_size banana").unwrap_err();
        assert!(e.message.contains("bad number"));
        assert!(c.pgset("pkt_size 9999").is_err());
        assert!(c.pgset("frobnicate 1").is_err());
        assert!(c.pgset("").is_err());
        assert!(c.pgset("dst not.an.ip").is_err());
    }

    #[test]
    fn numbers_are_parsed_at_their_fields_width() {
        // Each field takes its type's maximum where its range allows it,
        // and refuses maximum + 1 by name instead of truncating it.
        let mut c = PktgenControl::new();
        for (field, max) in [("udp_src_port", 65535), ("udp_dst_port", 65535)] {
            c.pgset(&format!("{field} {max}")).unwrap();
            let e = c.pgset(&format!("{field} {}", max + 1)).unwrap_err();
            assert!(e.message.contains("for port"), "{e}");
        }
        assert_eq!(
            (c.config.udp_src_port, c.config.udp_dst_port),
            (65535, 65535)
        );
        c.pgset("count 18446744073709551615").unwrap();
        assert!(c.pgset("count 18446744073709551616").is_err());
        c.pgset("src_mac_count 18446744073709551615").unwrap();
        assert_eq!(c.config.count, u64::MAX);
        // pkt_size is a u32 whose range stops at 1514.
        let e = c.pgset("pkt_size 4294967295").unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        let e = c.pgset("pkt_size 4294967338").unwrap_err();
        assert!(e.message.contains("for size"), "{e}");
        assert_eq!(c.config.size, SizeSource::Fixed(1500));

        let (max, count_max) = (u32::MAX as u128, usize::MAX as u128);
        let dist_args = [
            ("precision", max),
            ("hist_width", max),
            ("max_size", max),
            ("num_outl", count_max),
            ("num_hist", count_max),
        ];
        for (i, (name, max)) in dist_args.into_iter().enumerate() {
            let mut args = ["1000", "20", "1500", "1", "1"].map(String::from);
            args[i] = max.to_string();
            c.pgset(&format!("dist {}", args.join(" "))).unwrap();
            args[i] = (max + 1).to_string();
            let e = c.pgset(&format!("dist {}", args.join(" "))).unwrap_err();
            assert!(e.message.contains(&format!("for {name}")), "{e}");
        }
        for verb in ["outl", "hist"] {
            c.pgset("dist 1000 20 1500 2 2").unwrap();
            c.pgset(&format!("{verb} {max} 1")).unwrap();
            c.pgset(&format!("{verb} 40 {max}")).unwrap();
            let e = c.pgset(&format!("{verb} {} 1", max + 1)).unwrap_err();
            assert!(e.message.contains("for size"), "{e}");
            let e = c.pgset(&format!("{verb} 40 {}", max + 1)).unwrap_err();
            assert!(e.message.contains("for cells"), "{e}");
        }
        // The truncations that used to start and complete a precision-1
        // distribution are refused.
        let mut c = PktgenControl::new();
        let e = c.pgset("dist 4294967297 1 1500 0 1").unwrap_err();
        assert!(e.message.contains("for precision"), "{e}");
        c.pgset("dist 1 1 1500 0 1").unwrap();
        let e = c.pgset("hist 4294967396 4294967297").unwrap_err();
        assert!(e.message.contains("for size"), "{e}");
        assert!(!c.dist_ready());
    }

    #[test]
    fn distribution_state_machine() {
        let mut c = PktgenControl::new();
        // PKTSIZE_REAL before any distribution: refused.
        assert!(c.pgset("flag PKTSIZE_REAL").is_err());

        c.pgset("dist 1000 20 1500 2 1").unwrap();
        assert!(!c.dist_ready());
        // outl/hist before dist announcement done.
        c.pgset("outl 40 600").unwrap();
        assert!(!c.dist_ready());
        c.pgset("outl 1500 300").unwrap();
        assert!(!c.dist_ready());
        c.pgset("hist 100 100").unwrap();
        assert!(c.dist_ready());
        c.pgset("flag PKTSIZE_REAL").unwrap();
        assert!(c.pktsize_real());
        assert!(matches!(c.config.size, SizeSource::Distribution(_)));
    }

    #[test]
    fn too_many_entry_lines_rejected() {
        let mut c = PktgenControl::new();
        c.pgset("dist 1000 20 1500 1 1").unwrap();
        c.pgset("outl 40 500").unwrap();
        // The announcement said one outl line.
        assert!(c.pgset("outl 52 100").is_err());
    }

    #[test]
    fn oversized_distributions_are_refused_before_allocating() {
        // Both ask for 4G cells (16 GiB); neither may allocate them.
        let mut c = PktgenControl::new();
        c.pgset("dist 4294967295 20 1500 1 1").unwrap();
        c.pgset("outl 40 1").unwrap();
        let e = c.pgset("hist 0 1").unwrap_err();
        assert!(e.message.contains("MAX_PRECISION"), "{e}");
        let mut c = PktgenControl::new();
        c.pgset("dist 1000 20 1500 1 1").unwrap();
        c.pgset("outl 40 4294967295").unwrap();
        let e = c.pgset("hist 0 1").unwrap_err();
        assert!(e.message.contains("exceed precision"), "{e}");
        assert!(!c.dist_ready());
    }

    #[test]
    fn entry_lines_require_dist() {
        let mut c = PktgenControl::new();
        assert!(c.pgset("outl 40 100").is_err());
        assert!(c.pgset("hist 100 100").is_err());
    }

    #[test]
    fn render_commands_roundtrip() {
        let counts = vec![(40u32, 500u64), (1500, 300), (700, 100), (720, 100)];
        let dist = TwoStageDist::from_counts(counts, &DistConfig::default()).unwrap();
        let cmds = PktgenControl::render_dist_commands(&dist, 1000);
        let mut c = PktgenControl::new();
        for cmd in &cmds {
            c.pgset(cmd).unwrap_or_else(|e| panic!("{e}"));
        }
        assert!(c.pktsize_real());
        match &c.config.size {
            SizeSource::Distribution(d) => {
                assert_eq!(d.outlier_entries(), dist.outlier_entries());
                assert_eq!(d.bin_entries(), dist.bin_entries());
            }
            _ => panic!("distribution not installed"),
        }
    }

    #[test]
    fn pkt_size_clears_pktsize_real() {
        let mut c = PktgenControl::new();
        c.pgset("dist 1000 20 1500 1 1").unwrap();
        c.pgset("outl 40 500").unwrap();
        c.pgset("hist 100 100").unwrap();
        c.pgset("flag PKTSIZE_REAL").unwrap();
        c.pgset("pkt_size 1500").unwrap();
        assert!(!c.pktsize_real());
        assert_eq!(c.config.size, SizeSource::Fixed(1500));
    }
}
