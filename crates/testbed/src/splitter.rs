//! The passive optical splitter (thesis §2.3, §3.3).
//!
//! A passive splitter duplicates the light of one fiber onto several
//! outputs; it has no buffers, no electronics and therefore no loss or
//! reordering — which is exactly why the thesis uses one to feed all four
//! sniffers the same packets. Its only physical effect is a reduced
//! signal level per output: each two-way split costs ~3.5 dB, and the
//! receivers need the level to stay above their sensitivity budget.
//!
//! In the simulation the splitter is the *broadcast stage* of the
//! streaming pipeline: [`OpticalSplitter::channel`] produces one
//! [`SplitterSender`] and one bounded [`SplitterOutput`] queue per way.
//! The generator thread broadcasts each [`Chunk`] (an `Arc`, so a pointer
//! copy per way — passive duplication) and each machine simulation
//! consumes its own queue concurrently. Queues are bounded, so a slow
//! sniffer exerts backpressure on the generator instead of letting memory
//! grow with the run length; every output still sees every chunk in
//! order, so every sniffer simulates exactly the generated stream.

use pcs_pktgen::{Chunk, PacketSource};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

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

    /// Duplicate one timed packet stream into `ways` identical vectors.
    /// Passive and lossless: every output sees every packet at the same
    /// time (the methodology's requirement that each sniffer gets the
    /// same input).
    pub fn split<I, T: Clone>(&self, input: I) -> Vec<Vec<T>>
    where
        I: IntoIterator<Item = T>,
    {
        assert!(
            self.signal_ok(),
            "optical budget exceeded: {} dB loss over {} dB headroom",
            self.loss_db(),
            self.input_budget_db
        );
        let source: Vec<T> = input.into_iter().collect();
        (0..self.ways).map(|_| source.clone()).collect()
    }

    /// Open the streaming broadcast: one bounded queue of at most `depth`
    /// chunks per output (clamped to ≥ 1).
    ///
    /// The [`SplitterSender`] blocks while *any* output's queue is full —
    /// the slowest consumer paces the generator — and closing it (drop)
    /// lets every output drain its remaining chunks and then observe end
    /// of stream. Panics when the optical budget is exceeded, like
    /// [`OpticalSplitter::split`].
    pub fn channel(&self, depth: usize) -> (SplitterSender, Vec<SplitterOutput>) {
        assert!(
            self.signal_ok(),
            "optical budget exceeded: {} dB loss over {} dB headroom",
            self.loss_db(),
            self.input_budget_db
        );
        let queues: Vec<Arc<ChunkQueue>> = (0..self.ways)
            .map(|_| Arc::new(ChunkQueue::new(depth.max(1))))
            .collect();
        let outputs = queues
            .iter()
            .map(|queue| SplitterOutput {
                queue: Arc::clone(queue),
            })
            .collect();
        (SplitterSender { queues }, outputs)
    }
}

/// One output's bounded chunk queue.
struct ChunkQueue {
    state: Mutex<ChunkQueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    depth: usize,
}

struct ChunkQueueState {
    chunks: VecDeque<Chunk>,
    closed: bool,
}

impl ChunkQueue {
    fn new(depth: usize) -> ChunkQueue {
        ChunkQueue {
            state: Mutex::new(ChunkQueueState {
                chunks: VecDeque::with_capacity(depth),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth,
        }
    }

    /// Blocking bounded push; a no-op once the receiver hung up.
    fn push(&self, chunk: Chunk) {
        let mut state = self.state.lock().expect("splitter queue poisoned");
        while state.chunks.len() >= self.depth && !state.closed {
            state = self.not_full.wait(state).expect("splitter queue poisoned");
        }
        if !state.closed {
            state.chunks.push_back(chunk);
            self.not_empty.notify_one();
        }
    }

    /// Blocking pop; `None` once the sender closed and the queue drained.
    fn pop(&self) -> Option<Chunk> {
        let mut state = self.state.lock().expect("splitter queue poisoned");
        loop {
            if let Some(chunk) = state.chunks.pop_front() {
                self.not_full.notify_one();
                return Some(chunk);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("splitter queue poisoned");
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().expect("splitter queue poisoned");
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// The generator side of [`OpticalSplitter::channel`]. Dropping it ends
/// the stream for every output.
pub struct SplitterSender {
    queues: Vec<Arc<ChunkQueue>>,
}

impl SplitterSender {
    /// Broadcast one chunk to every output, blocking while the slowest
    /// output's queue is full (pipeline backpressure).
    pub fn broadcast(&self, chunk: &Chunk) {
        for queue in &self.queues {
            queue.push(Arc::clone(chunk));
        }
    }
}

impl Drop for SplitterSender {
    fn drop(&mut self) {
        for queue in &self.queues {
            queue.close();
        }
    }
}

/// One splitter output: a [`PacketSource`] fed by the sender's
/// broadcasts, consumed by one machine simulation.
pub struct SplitterOutput {
    queue: Arc<ChunkQueue>,
}

impl PacketSource for SplitterOutput {
    fn next_chunk(&mut self) -> Option<Chunk> {
        self.queue.pop()
    }
}

impl Drop for SplitterOutput {
    fn drop(&mut self) {
        // Unblock the sender if this consumer bails early (e.g. a
        // panicking sniffer thread): further pushes become no-ops.
        self.queue.close();
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

    #[test]
    fn outputs_are_identical() {
        let s = OpticalSplitter::new(3);
        let outs = s.split(vec![1, 2, 3]);
        assert_eq!(outs.len(), 3);
        for o in &outs {
            assert_eq!(o, &vec![1, 2, 3]);
        }
    }

    #[test]
    #[should_panic(expected = "optical budget exceeded")]
    fn split_panics_when_signal_too_weak() {
        OpticalSplitter::new(64).split(vec![1]);
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
