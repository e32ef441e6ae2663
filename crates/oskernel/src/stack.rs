//! The two capture-stack data structures (§2.1): FreeBSD's BPF device
//! with its STORE/HOLD double buffer and Linux's PF_PACKET socket queues
//! with shared, reference-counted packet memory — plus the memory-mapped
//! ring variant of the Fig. 6.15 patch.
//!
//! These are *pure* data structures: they track packets, bytes and drop
//! counters. CPU costs for the operations are charged by the machine
//! simulation (`sim`), which asks this module what happened (bytes
//! copied, filter instructions executed) and prices it.

use pcs_bpf::{vm, Insn};
use pcs_des::FastHash;
use pcs_pktgen::TimedPacket;
use pcs_wire::SimPacket;
use std::collections::HashMap;
use std::collections::VecDeque;

/// A captured packet as it sits in kernel buffers: metadata only; payload
/// bytes are virtual (their volume is accounted, their content
/// reconstructible from the generator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapturedPacket {
    /// Generator sequence number.
    pub seq: u64,
    /// Generation timestamp (ns).
    pub gen_ns: u64,
    /// Kernel receive timestamp (ns).
    pub recv_ns: u64,
    /// Captured bytes (≤ snaplen).
    pub caplen: u32,
    /// Original frame length.
    pub frame_len: u32,
}

/// Filter evaluation with a verdict cache.
///
/// Generated packets differ only in sequence-dependent fields (IP ident,
/// checksum, the pktgen payload stamp); the cache keys on the stored
/// header with those bytes masked, so any filter that doesn't inspect
/// them — including the thesis' Fig. 6.5 filter — gets exact verdicts at
/// hash-lookup speed. The *costs* still reflect the real instruction
/// count, which the VM reports on each miss.
#[derive(Debug, Clone)]
pub struct KernelFilter {
    prog: Vec<Insn>,
    /// Keyed access only (the deterministic [`FastHash`] is safe: verdict
    /// lookups never observe iteration order).
    cache: HashMap<(u32, [u8; pcs_wire::STORED_HEADER_LEN]), (u32, u32), FastHash>,
}

impl KernelFilter {
    /// Wrap a validated program.
    pub fn new(prog: Vec<Insn>) -> KernelFilter {
        KernelFilter {
            prog,
            cache: HashMap::default(),
        }
    }

    /// Number of instructions in the program.
    pub fn len(&self) -> usize {
        self.prog.len()
    }

    /// True for the trivial empty program (never constructed; appeases
    /// clippy's is_empty convention).
    pub fn is_empty(&self) -> bool {
        self.prog.is_empty()
    }

    /// Evaluate: returns `(accept_len, instructions_executed)`.
    pub fn check(&mut self, pkt: &SimPacket) -> (u32, u32) {
        let mut key_hdr = pkt.header;
        // For generator packets (identified by the pktgen payload magic)
        // the sequence-dependent bytes — IP ident (18..20), IP checksum
        // (24..26), seq+timestamp stamp (46..62) — are masked so the whole
        // stream shares a handful of cache keys. Any other packet (a frame
        // too short to carry the magic, or one a test builds by hand) is
        // cached under its exact bytes, which is always sound: distinct
        // packets get distinct keys.
        let is_pktgen = pcs_wire::PacketBytes::word(pkt, 42) == Some(pcs_wire::PKTGEN_MAGIC);
        if is_pktgen {
            for b in key_hdr.iter_mut().take(20).skip(18) {
                *b = 0;
            }
            for b in key_hdr.iter_mut().take(26).skip(24) {
                *b = 0;
            }
            for b in key_hdr.iter_mut().take(62).skip(46) {
                *b = 0;
            }
        }
        let key = (pkt.frame_len, key_hdr);
        if let Some(&v) = self.cache.get(&key) {
            return v;
        }
        let verdict = vm::run(&self.prog, pkt).unwrap_or(vm::Verdict {
            accept_len: 0,
            insns_executed: self.prog.len() as u32,
        });
        let v = (verdict.accept_len, verdict.insns_executed);
        // Bound the cache; generated workloads need a few thousand keys.
        if self.cache.len() < 65_536 {
            self.cache.insert(key, v);
        }
        v
    }
}

/// Drop/delivery counters of one capture consumer.
///
/// Together with the NIC-level counters in `RunReport` these buckets give
/// an exhaustive, no-special-cases account of every packet a consumer was
/// offered: `accepted + rejected` packets entered the stack, of which
/// `dropped_buffer + dropped_pool` died in the kernel, `kernel_residue +
/// app_residue` were still in flight when the run stopped, and `received`
/// (= `delivered - app_residue`) were fully processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Packets the filter accepted (libpcap's `ps_recv`).
    pub accepted: u64,
    /// Packets the filter rejected.
    pub rejected: u64,
    /// Accepted packets dropped for lack of buffer space (`ps_drop`).
    pub dropped_buffer: u64,
    /// Accepted packets dropped because the shared kernel packet pool was
    /// exhausted (Linux refcounting, §6.3.3).
    pub dropped_pool: u64,
    /// Packets handed to the application.
    pub delivered: u64,
    /// Accepted + stored packets still sitting in a kernel buffer when the
    /// run stopped (set by `finalize_residue`).
    pub kernel_residue: u64,
    /// Packets handed to the application but not yet processed when the
    /// run stopped (set by the machine sim at shutdown).
    pub app_residue: u64,
}

/// Which buffer killed a packet, when one did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DropKind {
    /// Not dropped (stored, or rejected by the filter before buffering).
    #[default]
    None,
    /// The consumer's kernel buffer (BPF double buffer, socket rmem, or
    /// mmap ring) was full.
    Buffer,
    /// The shared kernel packet pool was exhausted (Linux refcounting).
    Pool,
}

/// What happened when the kernel offered one packet to one consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliverOutcome {
    /// Filter accepted the packet.
    pub accepted: bool,
    /// Filter instructions executed (0 for no filter).
    pub filter_insns: u32,
    /// Bytes copied into a kernel buffer (BPF store copy / mmap ring
    /// copy; 0 for the pointer-queue Linux path and for drops).
    pub copied_bytes: u32,
    /// The packet was stored (not dropped).
    pub stored: bool,
    /// For accepted-but-not-stored packets: which buffer dropped it.
    pub drop: DropKind,
}

// ---------------------------------------------------------------------
// FreeBSD: the BPF device
// ---------------------------------------------------------------------

/// The per-packet buffer overhead of a BPF record (struct bpf_hdr,
/// word-aligned).
fn bpf_slot_bytes(caplen: u32) -> u64 {
    ((18 + caplen as u64) + 3) & !3
}

/// Capacity under a fault-injected shrink: `base` scaled by
/// `permille`/1000. Exact at 1000 (the no-fault fast path) so an
/// unfaulted run admits on precisely the configured bound.
fn scaled_capacity(base: u64, permille: u32) -> u64 {
    if permille == 1000 {
        base
    } else {
        base.saturating_mul(permille as u64) / 1000
    }
}

/// One `/dev/bpfN` device: filter + double buffer (§2.1.1, Fig. 2.1).
#[derive(Debug)]
pub struct BpfDevice {
    filter: Option<KernelFilter>,
    snaplen: u32,
    half_capacity: u64,
    /// Fault-injected capacity scale (1000 = full size).
    capacity_permille: u32,
    store: VecDeque<CapturedPacket>,
    store_bytes: u64,
    hold: VecDeque<CapturedPacket>,
    hold_bytes: u64,
    /// Counters.
    pub stats: StackStats,
}

impl BpfDevice {
    /// Create with the given buffer half size and snaplen.
    pub fn new(half_capacity: u64, snaplen: u32, filter: Option<Vec<Insn>>) -> BpfDevice {
        BpfDevice {
            filter: filter.map(KernelFilter::new),
            snaplen,
            half_capacity,
            capacity_permille: 1000,
            store: VecDeque::new(),
            store_bytes: 0,
            hold: VecDeque::new(),
            hold_bytes: 0,
            stats: StackStats::default(),
        }
    }

    /// Fault hook: scale the admission capacity to `permille`/1000 of
    /// the configured half size (1000 restores it). Already-stored
    /// packets are never evicted; only future admissions see the shrink.
    pub fn set_capacity_permille(&mut self, permille: u32) {
        self.capacity_permille = permille;
    }

    /// Offer the packet `tp` with sequence number `seq` (called from
    /// interrupt context in the real kernel).
    pub fn deliver(&mut self, seq: u64, tp: &TimedPacket, recv_ns: u64) -> DeliverOutcome {
        let pkt = &tp.packet;
        let (accept_len, insns) = match &mut self.filter {
            Some(f) => f.check(pkt),
            None => (u32::MAX, 0),
        };
        if accept_len == 0 {
            self.stats.rejected += 1;
            return DeliverOutcome {
                accepted: false,
                filter_insns: insns,
                copied_bytes: 0,
                stored: false,
                drop: DropKind::None,
            };
        }
        self.stats.accepted += 1;
        let caplen = pkt.frame_len.min(accept_len).min(self.snaplen);
        let slot = bpf_slot_bytes(caplen);
        if self.store_bytes + slot > scaled_capacity(self.half_capacity, self.capacity_permille) {
            // STORE full and a packet is waiting: rotate if HOLD is free.
            if self.hold.is_empty() {
                std::mem::swap(&mut self.store, &mut self.hold);
                self.hold_bytes = self.store_bytes;
                self.store_bytes = 0;
            } else {
                self.stats.dropped_buffer += 1;
                return DeliverOutcome {
                    accepted: true,
                    filter_insns: insns,
                    copied_bytes: 0,
                    stored: false,
                    drop: DropKind::Buffer,
                };
            }
        }
        self.store_bytes += slot;
        self.store.push_back(CapturedPacket {
            seq,
            gen_ns: tp.time.as_nanos(),
            recv_ns,
            caplen,
            frame_len: pkt.frame_len,
        });
        DeliverOutcome {
            accepted: true,
            filter_insns: insns,
            copied_bytes: caplen,
            stored: true,
            drop: DropKind::None,
        }
    }

    /// Application `read()`: appends the HOLD buffer contents (rotating
    /// first if HOLD is empty and STORE has data, per §2.1.1) to `out`,
    /// the application's pending queue. Returns `(packets, bytes)`
    /// delivered, the bytes being what is copied to user space.
    pub fn read_into(&mut self, out: &mut VecDeque<CapturedPacket>) -> (u64, u64) {
        if self.hold.is_empty() && !self.store.is_empty() {
            std::mem::swap(&mut self.store, &mut self.hold);
            self.hold_bytes = self.store_bytes;
            self.store_bytes = 0;
        }
        let bytes = self.hold_bytes;
        self.hold_bytes = 0;
        let n = self.hold.len() as u64;
        out.extend(self.hold.drain(..));
        self.stats.delivered += n;
        (n, bytes)
    }

    /// True when a read would return data.
    pub fn readable(&self) -> bool {
        !self.hold.is_empty() || !self.store.is_empty()
    }

    /// Packets currently buffered (both halves).
    pub fn buffered_packets(&self) -> u64 {
        (self.store.len() + self.hold.len()) as u64
    }

    /// End-of-run accounting: record packets still buffered as
    /// `kernel_residue` so the attribution identity stays exact for runs
    /// that stop with data in flight.
    pub fn finalize_residue(&mut self) {
        self.stats.kernel_residue = self.buffered_packets();
    }

    /// The buffer half size.
    pub fn half_capacity(&self) -> u64 {
        self.half_capacity
    }
}

// ---------------------------------------------------------------------
// Linux: PF_PACKET sockets over a shared refcounted pool
// ---------------------------------------------------------------------

/// skb truesize per packet: the 2.6 kernel charges the *allocated* size
/// (kmalloc rounds the data buffer up to a power of two) plus the skb
/// struct itself. This is why the default 110 kB `rmem` holds only ~50
/// full-size packets — central to the Fig. 6.2/6.3 buffer results.
fn skb_truesize(frame_len: u32) -> u64 {
    let data = (frame_len + 32).next_power_of_two().max(256) as u64;
    data + 244
}

/// One PF_PACKET socket (§2.1.2, Fig. 2.2) or its mmap-ring variant.
#[derive(Debug)]
pub struct LsfSocket {
    filter: Option<KernelFilter>,
    snaplen: u32,
    /// Per-socket receive budget in bytes (rmem).
    rmem: u64,
    /// Fault-injected capacity scale (1000 = full size).
    capacity_permille: u32,
    queue: VecDeque<CapturedPacket>,
    queue_bytes: u64,
    /// mmap variant: ring capacity replaces the rmem accounting and the
    /// kernel copies `caplen` bytes instead of queuing a reference.
    pub mmap: bool,
    /// Counters.
    pub stats: StackStats,
}

impl LsfSocket {
    /// Create a socket with the given receive budget.
    pub fn new(rmem: u64, snaplen: u32, filter: Option<Vec<Insn>>, mmap: bool) -> LsfSocket {
        LsfSocket {
            filter: filter.map(KernelFilter::new),
            snaplen,
            rmem,
            capacity_permille: 1000,
            queue: VecDeque::new(),
            queue_bytes: 0,
            mmap,
            stats: StackStats::default(),
        }
    }

    /// Fault hook: scale the admission budget to `permille`/1000 of the
    /// configured rmem/ring size (1000 restores it). Queued packets are
    /// never evicted; only future admissions see the shrink.
    pub fn set_capacity_permille(&mut self, permille: u32) {
        self.capacity_permille = permille;
    }

    /// True when packets await the application.
    pub fn readable(&self) -> bool {
        !self.queue.is_empty()
    }

    /// End-of-run accounting: record packets still queued as
    /// `kernel_residue` (see [`BpfDevice::finalize_residue`]).
    pub fn finalize_residue(&mut self) {
        self.stats.kernel_residue = self.queue.len() as u64;
    }

    /// Dequeue up to `max` packets (the application's recvfrom loop /
    /// ring scan), appending them to `out` (a pooled buffer). Returns the
    /// bytes that will be copied to user space (0 for mmap: the copy
    /// happened on the kernel side).
    pub fn dequeue_into(&mut self, max: usize, out: &mut Vec<CapturedPacket>) -> u64 {
        let n = self.queue.len().min(max);
        let mut copy_bytes = 0u64;
        for _ in 0..n {
            let p = self.queue.pop_front().expect("len checked");
            self.queue_bytes -= self.charge_of(&p);
            if !self.mmap {
                copy_bytes += p.caplen as u64;
            }
            out.push(p);
        }
        self.stats.delivered += n as u64;
        copy_bytes
    }

    fn charge_of(&self, p: &CapturedPacket) -> u64 {
        if self.mmap {
            (p.caplen as u64 + 32 + 15) & !15
        } else {
            skb_truesize(p.frame_len)
        }
    }
}

/// The Linux-side kernel state: every socket plus the shared packet pool.
///
/// §6.3.3: "Linux uses reference counting for the packets in kernel
/// memory. If any application does not release the claim for a packet
/// this packet is kept forever, blocking kernel memory. Once the kernel
/// memory buffer is full, every further incoming packet will be dropped."
#[derive(Debug)]
pub struct LsfState {
    /// The sockets (one per capture application).
    pub sockets: Vec<LsfSocket>,
    /// Shared pool capacity in bytes.
    pool_capacity: u64,
    /// Fault-injected capacity scale (1000 = full size).
    capacity_permille: u32,
    pool_bytes: u64,
    /// seq → (remaining refs, pooled truesize) for refcounted packets.
    /// Three keyed operations per packet on the softirq path, so the
    /// map uses the deterministic [`FastHash`] (iteration order is
    /// never observed — only `get_mut`/`insert`/`remove` by seq).
    refs: HashMap<u64, (u32, u64), FastHash>,
    /// Per-call delivery scratch, reused so the per-packet softirq path
    /// never allocates (DESIGN.md §15).
    outcomes: Vec<DeliverOutcome>,
    /// Per-call filter-verdict scratch (pass 1 of [`LsfState::deliver`]).
    accepts: Vec<Option<u32>>,
}

impl LsfState {
    /// Build the kernel state for `sockets`, sharing a pool of
    /// `pool_capacity` bytes.
    pub fn new(sockets: Vec<LsfSocket>, pool_capacity: u64) -> LsfState {
        LsfState {
            sockets,
            pool_capacity,
            capacity_permille: 1000,
            pool_bytes: 0,
            refs: HashMap::default(),
            outcomes: Vec::new(),
            accepts: Vec::new(),
        }
    }

    /// Fault hook: scale the pool and every socket's budget to
    /// `permille`/1000 of their configured sizes (1000 restores them).
    pub fn set_capacity_permille(&mut self, permille: u32) {
        self.capacity_permille = permille;
        for s in &mut self.sockets {
            s.set_capacity_permille(permille);
        }
    }

    /// Offer the packet `tp` with sequence number `seq` to every socket
    /// (the softirq path). Returns one outcome per socket, borrowed from
    /// internal scratch that the next `deliver` call reuses — the
    /// per-packet path allocates nothing.
    pub fn deliver(&mut self, seq: u64, tp: &TimedPacket, recv_ns: u64) -> &[DeliverOutcome] {
        let pkt = &tp.packet;
        let outcomes = &mut self.outcomes;
        outcomes.clear();
        // Pass 1: filters.
        let accepts = &mut self.accepts;
        accepts.clear();
        for s in &mut self.sockets {
            let (accept_len, insns) = match &mut s.filter {
                Some(f) => f.check(pkt),
                None => (u32::MAX, 0),
            };
            if accept_len == 0 {
                s.stats.rejected += 1;
                accepts.push(None);
            } else {
                s.stats.accepted += 1;
                accepts.push(Some(pkt.frame_len.min(accept_len).min(s.snaplen)));
            }
            outcomes.push(DeliverOutcome {
                accepted: accept_len != 0,
                filter_insns: insns,
                copied_bytes: 0,
                stored: false,
                drop: DropKind::None,
            });
        }
        let truesize = skb_truesize(pkt.frame_len);
        let any_accept = accepts.iter().any(|a| a.is_some());
        if !any_accept {
            return &self.outcomes;
        }
        // Pool admission: one charge per packet regardless of how many
        // sockets reference it.
        let non_mmap_accepts = accepts
            .iter()
            .zip(&self.sockets)
            .filter(|(a, s)| a.is_some() && !s.mmap)
            .count() as u32;
        let pool_ok = non_mmap_accepts == 0
            || self.pool_bytes + truesize
                <= scaled_capacity(self.pool_capacity, self.capacity_permille);
        let mut refs = 0u32;
        for (i, s) in self.sockets.iter_mut().enumerate() {
            let caplen = match accepts[i] {
                Some(c) => c,
                None => continue,
            };
            let cap = CapturedPacket {
                seq,
                gen_ns: tp.time.as_nanos(),
                recv_ns,
                caplen,
                frame_len: pkt.frame_len,
            };
            if s.mmap {
                // mmap ring: bounded by its own ring bytes; kernel copies
                // caplen into the ring.
                let charge = s.charge_of(&cap);
                if s.queue_bytes + charge <= scaled_capacity(s.rmem, s.capacity_permille) {
                    s.queue_bytes += charge;
                    s.queue.push_back(cap);
                    outcomes[i].copied_bytes = caplen;
                    outcomes[i].stored = true;
                } else {
                    s.stats.dropped_buffer += 1;
                    outcomes[i].drop = DropKind::Buffer;
                }
                continue;
            }
            if !pool_ok {
                s.stats.dropped_pool += 1;
                outcomes[i].drop = DropKind::Pool;
                continue;
            }
            let charge = skb_truesize(pkt.frame_len);
            if s.queue_bytes + charge <= scaled_capacity(s.rmem, s.capacity_permille) {
                s.queue_bytes += charge;
                s.queue.push_back(cap);
                outcomes[i].stored = true;
                refs += 1;
            } else {
                s.stats.dropped_buffer += 1;
                outcomes[i].drop = DropKind::Buffer;
            }
        }
        if refs > 0 {
            self.pool_bytes += truesize;
            self.refs.insert(seq, (refs, truesize));
        }
        &self.outcomes
    }

    /// Release one reference to a packet dequeued by a (non-mmap) socket
    /// with [`LsfSocket::dequeue_into`].
    pub fn release_seq(&mut self, seq: u64) {
        if let Some((refs, truesize)) = self.refs.get_mut(&seq) {
            *refs -= 1;
            if *refs == 0 {
                self.pool_bytes -= *truesize;
                self.refs.remove(&seq);
            }
        }
    }

    /// Current pool usage in bytes.
    pub fn pool_bytes(&self) -> u64 {
        self.pool_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_wire::MacAddr;
    use std::net::Ipv4Addr;

    fn pkt(seq: u64, len: u32) -> TimedPacket {
        let time = pcs_des::SimTime::from_nanos(seq * 1000);
        let packet = SimPacket::build_udp(
            seq,
            time.as_nanos(),
            len,
            MacAddr::ZERO.offset(seq % 3),
            MacAddr::new(0, 0xe, 0xc, 1, 2, 3),
            Ipv4Addr::new(192, 168, 10, 100),
            Ipv4Addr::new(192, 168, 10, 12),
            9,
            9,
        );
        TimedPacket { time, packet }
    }

    // ---- BPF device ----

    #[test]
    fn bpf_stores_and_reads() {
        let mut d = BpfDevice::new(10_000, 65_535, None);
        for i in 0..5 {
            let o = d.deliver(i, &pkt(i, 100), i * 10);
            assert!(o.accepted && o.stored);
            assert_eq!(o.copied_bytes, 100);
        }
        assert!(d.readable());
        let mut pkts = VecDeque::new();
        let (n, bytes) = d.read_into(&mut pkts);
        assert_eq!((n, pkts.len()), (5, 5));
        assert_eq!(bytes, 5 * bpf_slot_bytes(100));
        assert_eq!(d.stats.delivered, 5);
        assert!(!d.readable());
    }

    #[test]
    fn bpf_rotates_when_store_full_and_drops_when_both_full() {
        // Each 100-byte packet occupies 120 bytes; half holds 2.
        let mut d = BpfDevice::new(240, 65_535, None);
        assert!(d.deliver(0, &pkt(0, 100), 0).stored);
        assert!(d.deliver(1, &pkt(1, 100), 0).stored);
        // Third packet: store full, hold empty -> rotation, stored.
        assert!(d.deliver(2, &pkt(2, 100), 0).stored);
        assert!(d.deliver(3, &pkt(3, 100), 0).stored);
        // Fifth: store full, hold full -> drop.
        let o = d.deliver(4, &pkt(4, 100), 0);
        assert!(o.accepted && !o.stored);
        assert_eq!(d.stats.dropped_buffer, 1);
        // Read returns the HOLD half (packets 0,1), then the next read
        // rotates and returns 2,3.
        let (mut a, mut b) = (VecDeque::new(), VecDeque::new());
        d.read_into(&mut a);
        assert_eq!(a.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![0, 1]);
        d.read_into(&mut b);
        assert_eq!(b.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn bpf_snaplen_truncates() {
        let mut d = BpfDevice::new(100_000, 76, None);
        let o = d.deliver(0, &pkt(0, 1500), 0);
        assert_eq!(o.copied_bytes, 76);
        let mut pkts = VecDeque::new();
        d.read_into(&mut pkts);
        assert_eq!(pkts[0].caplen, 76);
        assert_eq!(pkts[0].frame_len, 1500);
    }

    #[test]
    fn bpf_filter_rejects_and_counts() {
        let prog = pcs_bpf::compile("tcp", 65_535).unwrap();
        let mut d = BpfDevice::new(100_000, 65_535, Some(prog));
        let o = d.deliver(0, &pkt(0, 100), 0);
        assert!(!o.accepted);
        assert!(o.filter_insns > 0);
        assert_eq!(d.stats.rejected, 1);
        assert!(!d.readable());
    }

    #[test]
    fn filter_cache_hits_are_exact() {
        let prog = pcs_bpf::programs::fig65_program(65_535).unwrap();
        let mut f = KernelFilter::new(prog.clone());
        // Two packets with the same shape but different seq: one miss,
        // one hit, identical verdicts.
        let a = f.check(&pkt(0, 750).packet);
        let b = f.check(&pkt(3, 750).packet); // same MAC (seq%3==0), same size
        assert_eq!(a, b);
        assert_eq!(a.1 as usize, prog.len() - 1);
        // Different size is a different key but same verdict here.
        let c = f.check(&pkt(1, 1000).packet);
        assert!(c.0 > 0);
    }

    // ---- LSF ----

    fn lsf(n: usize, rmem: u64, pool: u64) -> LsfState {
        let sockets = (0..n)
            .map(|_| LsfSocket::new(rmem, 65_535, None, false))
            .collect();
        LsfState::new(sockets, pool)
    }

    /// What the Linux app stage does per chunk on a non-mmap socket:
    /// dequeue up to `max` packets and release each one's reference.
    /// Returns `(packets, bytes copied)`.
    fn dequeue_and_release(l: &mut LsfState, socket: usize, max: usize) -> (usize, u64) {
        let mut pkts = Vec::new();
        let bytes = l.sockets[socket].dequeue_into(max, &mut pkts);
        for p in &pkts {
            l.release_seq(p.seq);
        }
        (pkts.len(), bytes)
    }

    #[test]
    fn lsf_delivers_to_all_sockets() {
        let mut l = lsf(3, 1 << 20, 1 << 20);
        let o = l.deliver(0, &pkt(0, 500), 7);
        assert_eq!(o.len(), 3);
        assert!(o.iter().all(|x| x.accepted && x.stored));
        // Pool charged once.
        assert_eq!(l.pool_bytes(), skb_truesize(500));
        for s in &l.sockets {
            assert_eq!(s.queue.len(), 1);
        }
    }

    #[test]
    fn lsf_pool_exhaustion_blocks_everyone() {
        // Pool fits exactly one packet; socket rmem is large.
        let mut l = lsf(2, 1 << 20, skb_truesize(500));
        assert!(l.deliver(0, &pkt(0, 500), 0).iter().all(|o| o.stored));
        let o = l.deliver(1, &pkt(1, 500), 0);
        assert!(o.iter().all(|x| x.accepted && !x.stored));
        assert_eq!(l.sockets[0].stats.dropped_pool, 1);
        assert_eq!(l.sockets[1].stats.dropped_pool, 1);
        // One socket dequeues: pool still held by the other's reference.
        dequeue_and_release(&mut l, 0, 10);
        assert_eq!(l.pool_bytes(), skb_truesize(500));
        let o = l.deliver(2, &pkt(2, 500), 0);
        assert!(o.iter().all(|x| !x.stored));
        // Second socket dequeues: pool frees, delivery works again.
        dequeue_and_release(&mut l, 1, 10);
        assert_eq!(l.pool_bytes(), 0);
        assert!(l.deliver(3, &pkt(3, 500), 0).iter().all(|x| x.stored));
    }

    #[test]
    fn lsf_per_socket_rmem_limits() {
        // Tiny rmem on socket 0, large on socket 1.
        let sockets = vec![
            LsfSocket::new(skb_truesize(500), 65_535, None, false),
            LsfSocket::new(1 << 20, 65_535, None, false),
        ];
        let mut l = LsfState::new(sockets, 1 << 20);
        assert!(l.deliver(0, &pkt(0, 500), 0)[0].stored);
        let o = l.deliver(1, &pkt(1, 500), 0);
        assert!(!o[0].stored, "socket 0 rmem full");
        assert!(o[1].stored, "socket 1 unaffected");
        assert_eq!(l.sockets[0].stats.dropped_buffer, 1);
    }

    #[test]
    fn lsf_dequeue_copies_bytes_and_releases() {
        let mut l = lsf(1, 1 << 20, 1 << 20);
        for i in 0..4 {
            l.deliver(i, &pkt(i, 200), 0);
        }
        assert_eq!(dequeue_and_release(&mut l, 0, 2), (2, 400));
        assert_eq!(l.pool_bytes(), 2 * skb_truesize(200));
    }

    #[test]
    fn mmap_ring_copies_in_kernel_and_ignores_pool() {
        let sockets = vec![LsfSocket::new(4096, 65_535, None, true)];
        // Pool of zero: mmap sockets must not need it.
        let mut l = LsfState::new(sockets, 0);
        let o = l.deliver(0, &pkt(0, 500), 0);
        assert!(o[0].stored);
        assert_eq!(o[0].copied_bytes, 500);
        assert_eq!(l.pool_bytes(), 0);
        let mut pkts = Vec::new();
        let user_copy = l.sockets[0].dequeue_into(10, &mut pkts);
        assert_eq!(pkts.len(), 1);
        assert_eq!(user_copy, 0, "mmap read copies nothing");
    }

    #[test]
    fn mmap_ring_overflows_at_ring_capacity() {
        let sockets = vec![LsfSocket::new(1100, 65_535, None, true)];
        let mut l = LsfState::new(sockets, 0);
        // Each 500-byte packet occupies align16(532) = 544 ring bytes.
        assert!(l.deliver(0, &pkt(0, 500), 0)[0].stored);
        assert!(l.deliver(1, &pkt(1, 500), 0)[0].stored);
        assert!(!l.deliver(2, &pkt(2, 500), 0)[0].stored);
        assert_eq!(l.sockets[0].stats.dropped_buffer, 1);
    }
}
