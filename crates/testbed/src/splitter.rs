//! The passive optical splitter (thesis §2.3, §3.3).
//!
//! A passive splitter duplicates the light of one fiber onto several
//! outputs; it has no buffers, no electronics and therefore no loss or
//! reordering — which is exactly why the thesis uses one to feed all four
//! sniffers the same packets. Its only physical effect is a reduced
//! signal level per output: each two-way split costs ~3.5 dB, and the
//! receivers need the level to stay above their sensitivity budget.
//!
//! In the simulation the splitter is the cell's stream itself: every
//! sniffer thread reads its own
//! [`StreamSubscriber`](pcs_pktgen::StreamSubscriber) of the one
//! published stream, chunk by chunk, in place — a pointer copy per way,
//! passive duplication. The testbed's cell pipeline takes only the
//! optics from this module: [`OpticalSplitter::signal_ok`] asserts that
//! the SUT count fits the optical budget.
//!
//! [`OpticalSplitter::channel`] remains for the repository benchmark's
//! span-traced cells: one bounded, in-order queue per way, closed when
//! the sender is dropped.

use pcs_pktgen::{Chunk, PacketSource};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// A passive optical splitter with `ways` outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalSplitter {
    ways: u32,
    /// Input signal budget above receiver sensitivity, in dB.
    input_budget_db: f64,
}

/// Per-two-way-split insertion loss in dB (3 dB split + excess).
const SPLIT_LOSS_DB: f64 = 3.5;

impl OpticalSplitter {
    /// A splitter with the given number of outputs and the short-cable
    /// budget of the thesis testbed (~11 dB of headroom).
    pub fn new(ways: u32) -> OpticalSplitter {
        assert!(ways >= 1, "a splitter needs at least one output");
        OpticalSplitter {
            ways,
            input_budget_db: 11.0,
        }
    }

    /// Number of outputs.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Optical loss per output in dB.
    pub fn loss_db(&self) -> f64 {
        (self.ways as f64).log2().ceil() * SPLIT_LOSS_DB
    }

    /// Whether the receivers still see a usable signal. The thesis notes
    /// the splitters "seem to be no problem, at least with the short
    /// cables that are used" (§2.3) — four ways fit the budget; many more
    /// would not.
    pub fn signal_ok(&self) -> bool {
        self.loss_db() <= self.input_budget_db
    }

    /// Open a broadcast of one bounded queue of at most `depth` chunks
    /// per output (clamped to ≥ 1). Only the repository benchmark's
    /// span-traced cells use it; no library path does.
    ///
    /// The [`SplitterSender`] blocks while *any* output's queue is full,
    /// and dropping it lets every output drain its remaining chunks and
    /// then observe end of stream. Every live output sees every chunk, in
    /// order; a dropped output is skipped. Panics when the optical budget
    /// is exceeded.
    pub fn channel(&self, depth: usize) -> (SplitterSender, Vec<SplitterOutput>) {
        assert!(
            self.signal_ok(),
            "optical budget exceeded: {} dB loss over {} dB headroom",
            self.loss_db(),
            self.input_budget_db
        );
        let (queues, outputs) = (0..self.ways)
            .map(|_| {
                let (queue, output) = sync_channel(depth.max(1));
                (queue, SplitterOutput { output })
            })
            .unzip();
        (SplitterSender { queues }, outputs)
    }
}

/// The generator side of [`OpticalSplitter::channel`]. Dropping it ends
/// the stream for every output.
pub struct SplitterSender {
    queues: Vec<SyncSender<Chunk>>,
}

impl SplitterSender {
    /// Broadcast one chunk to every output, blocking while the slowest
    /// output's queue is full (pipeline backpressure).
    pub fn broadcast(&self, chunk: &Chunk) {
        for queue in &self.queues {
            // A dropped output (a bailed-out sniffer) just stops receiving.
            let _ = queue.send(Arc::clone(chunk));
        }
    }
}

/// One splitter output: a [`PacketSource`] fed by the sender's
/// broadcasts, consumed by one machine simulation.
pub struct SplitterOutput {
    output: Receiver<Chunk>,
}

impl PacketSource for SplitterOutput {
    fn next_chunk(&mut self) -> Option<Chunk> {
        self.output.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_way_split_is_within_budget() {
        let s = OpticalSplitter::new(4);
        assert_eq!(s.ways(), 4);
        assert!((s.loss_db() - 7.0).abs() < 1e-9);
        assert!(s.signal_ok());
    }

    #[test]
    fn excessive_splitting_fails_the_budget() {
        let s = OpticalSplitter::new(32);
        assert!(!s.signal_ok());
    }

    use pcs_pktgen::{ChunkedGenerator, Generator, PktgenConfig, TimedPacket, TxModel};

    fn chunks(count: u64, per_chunk: usize) -> Vec<Chunk> {
        let gen = Generator::new(
            PktgenConfig {
                count,
                ..PktgenConfig::default()
            },
            TxModel::syskonnect(),
            1,
        );
        let mut source = ChunkedGenerator::new(gen, per_chunk);
        let mut out = Vec::new();
        while let Some(c) = source.next_chunk() {
            out.push(c);
        }
        out
    }

    #[test]
    fn channel_broadcasts_every_chunk_in_order_to_every_output() {
        let input = chunks(100, 16);
        let (sender, outputs) = OpticalSplitter::new(3).channel(input.len());
        for c in &input {
            sender.broadcast(c);
        }
        drop(sender);
        let flat: Vec<TimedPacket> = input.iter().flat_map(|c| c.iter().cloned()).collect();
        for mut out in outputs {
            let mut seen = Vec::new();
            while let Some(c) = out.next_chunk() {
                seen.extend(c.iter().cloned());
            }
            assert_eq!(seen, flat);
        }
    }

    #[test]
    fn bounded_queue_applies_backpressure_to_the_sender() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let input = chunks(50, 10); // 5 chunks
        let n = input.len();
        let (sender, mut outputs) = OpticalSplitter::new(1).channel(1);
        let sent = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for c in &input {
                    sender.broadcast(c);
                    sent.fetch_add(1, Ordering::SeqCst);
                }
                drop(sender);
            });
            // Give the sender ample time: with depth 1 it must stall
            // after the first accepted chunk, long before all 5.
            std::thread::sleep(std::time::Duration::from_millis(100));
            assert!(
                sent.load(Ordering::SeqCst) < n,
                "sender ran ahead of the bounded queue"
            );
            let mut got = 0;
            while outputs[0].next_chunk().is_some() {
                got += 1;
            }
            assert_eq!(got, n);
        });
        assert_eq!(sent.load(Ordering::SeqCst), n);
    }

    #[test]
    fn dropped_output_does_not_wedge_the_sender() {
        let input = chunks(40, 4); // 10 chunks, depth 1
        let n = input.len();
        let (sender, outputs) = OpticalSplitter::new(2).channel(1);
        std::thread::scope(|scope| {
            let mut keep = None;
            for (i, out) in outputs.into_iter().enumerate() {
                if i == 0 {
                    drop(out); // this sniffer died immediately
                } else {
                    keep = Some(out);
                }
            }
            let mut keep = keep.unwrap();
            scope.spawn(move || {
                let mut got = 0;
                while keep.next_chunk().is_some() {
                    got += 1;
                }
                assert_eq!(got, n);
            });
            for c in &input {
                sender.broadcast(c); // must not deadlock on the dead way
            }
            drop(sender);
        });
    }

    #[test]
    #[should_panic(expected = "optical budget exceeded")]
    fn channel_panics_when_signal_too_weak() {
        OpticalSplitter::new(64).channel(4);
    }
}
