//! Model-based test of the `StreamCache`: proptest draws a sequence of
//! steps over three keys — acquire, publish, `subscribe()`, clone,
//! `next_chunk`, finish, drop a publisher mid-stream, `clear` — under a
//! byte budget small enough that finishing streams overrun it, and
//! replays them on one thread against the real cache and a plain model
//! side by side.
//!
//! A subscriber reads only when the model says a chunk or the end of a
//! finished stream is there, so no step ever blocks. After every step:
//!
//! * every subscriber has read its producer's chunks in order, each the
//!   very `Arc` the producer published;
//! * a finished stream ends after its last chunk;
//! * a finished stream stays linked only when its key had been acquired
//!   at least twice when it finished (`clear` forgets no count) and the
//!   resident bytes then fit the budget; any other finished stream is
//!   unlinked, and a kept stream is never unlinked except by `clear` (a
//!   wrong keep or unlink shows up in the resident bytes, the stream
//!   count or the role of a later acquire);
//! * an abandoned stream is unlinked, and the next acquire of its key
//!   produces;
//! * resident bytes equal the bytes of the linked streams, the finished
//!   ones among them fit the budget, and the peak never falls.

use pcs_pktgen::{
    chunk_bytes, Chunk, ChunkedGenerator, Generator, PacketSource, PktgenConfig, StreamCache,
    StreamPublisher, StreamRole, StreamSubscriber, TimedPacket, TxModel,
};
use proptest::prelude::*;
use std::sync::Arc;

const KEYS: usize = 3;

/// Room for about three short streams: finishing with more resident
/// keeps nothing.
const BUDGET_PACKETS: usize = 24;

/// One stream as the model sees it.
struct ModelStream {
    key: usize,
    chunks: Vec<Chunk>,
    bytes: u64,
    done: bool,
    abandoned: bool,
    linked: bool,
}

/// The model cache: every stream ever produced, which one each key links
/// to, how often each key was acquired, and the byte accounting.
struct Model {
    streams: Vec<ModelStream>,
    linked: [Option<usize>; KEYS],
    acquires: [u64; KEYS],
    resident: u64,
    peak: u64,
    budget: u64,
}

impl Model {
    fn unlink(&mut self, id: usize) {
        let stream = &mut self.streams[id];
        stream.linked = false;
        self.resident -= stream.bytes;
        self.linked.iter_mut().for_each(|l| {
            if *l == Some(id) {
                *l = None
            }
        });
    }
}

/// A subscriber under test, with the model's view of its position.
struct Reader {
    subscriber: StreamSubscriber,
    stream: usize,
    next: usize,
}

fn key(k: usize) -> (u64, u64) {
    (0x5eed, k as u64)
}

/// Sixteen generated packets to cut chunks from.
fn template() -> Vec<TimedPacket> {
    let generator = Generator::new(
        PktgenConfig {
            count: 16,
            ..PktgenConfig::default()
        },
        TxModel::syskonnect(),
        3,
    );
    let mut source = ChunkedGenerator::new(generator, 16);
    source.next_chunk().expect("sixteen packets").to_vec()
}

fn run(steps: &[u32]) -> Result<(), TestCaseError> {
    let packets = template();
    let budget = (BUDGET_PACKETS * std::mem::size_of::<TimedPacket>()) as u64;
    let cache = StreamCache::new();
    let mut model = Model {
        streams: Vec::new(),
        linked: [None; KEYS],
        acquires: [0; KEYS],
        resident: 0,
        peak: 0,
        budget,
    };
    let mut publishers: Vec<Option<(StreamPublisher<'_>, usize)>> =
        (0..KEYS).map(|_| None).collect();
    let mut readers: Vec<Reader> = Vec::new();
    for (i, &step) in steps.iter().enumerate() {
        let k = (step / 8) as usize % KEYS;
        let pick = (step / 24) as usize;
        match step % 8 {
            0 => {
                model.acquires[k] += 1;
                let role = cache.acquire(key(k), budget);
                match (role, model.linked[k]) {
                    (StreamRole::Subscribe(subscriber), Some(id)) => {
                        readers.push(Reader {
                            subscriber,
                            stream: id,
                            next: 0,
                        });
                    }
                    (StreamRole::Produce(publisher), None) => {
                        let id = model.streams.len();
                        model.streams.push(ModelStream {
                            key: k,
                            chunks: Vec::new(),
                            bytes: 0,
                            done: false,
                            abandoned: false,
                            linked: true,
                        });
                        model.linked[k] = Some(id);
                        prop_assert!(publishers[k].is_none(), "step {i}: two producers");
                        publishers[k] = Some((publisher, id));
                    }
                    (StreamRole::Subscribe(_), None) => {
                        return Err(TestCaseError::fail(format!(
                            "step {i}: key {k} subscribed, the model produces"
                        )))
                    }
                    (StreamRole::Produce(_), Some(_)) => {
                        return Err(TestCaseError::fail(format!(
                            "step {i}: key {k} produced, the model subscribes"
                        )))
                    }
                }
            }
            1 => {
                if let Some((publisher, id)) = &mut publishers[k] {
                    let len = 1 + pick % 8;
                    let chunk: Chunk = packets[..len].to_vec().into();
                    publisher.publish(&chunk);
                    let bytes = chunk_bytes(&chunk);
                    let stream = &mut model.streams[*id];
                    stream.chunks.push(chunk);
                    stream.bytes += bytes;
                    model.resident += bytes;
                    model.peak = model.peak.max(model.resident);
                }
            }
            2 => {
                if let Some((publisher, id)) = &publishers[k] {
                    readers.push(Reader {
                        subscriber: publisher.subscribe(),
                        stream: *id,
                        next: 0,
                    });
                }
            }
            3 => {
                if !readers.is_empty() {
                    let reader = &readers[pick % readers.len()];
                    readers.push(Reader {
                        subscriber: reader.subscriber.clone(),
                        stream: reader.stream,
                        next: reader.next,
                    });
                }
            }
            4 => {
                if !readers.is_empty() {
                    let n = readers.len();
                    let reader = &mut readers[pick % n];
                    let stream = &model.streams[reader.stream];
                    if reader.next < stream.chunks.len() {
                        let chunk = reader.subscriber.next_chunk();
                        let expected = &stream.chunks[reader.next];
                        prop_assert!(
                            chunk.as_ref().is_some_and(|c| Arc::ptr_eq(c, expected)),
                            "step {i}: chunk {} of stream {} is not the producer's",
                            reader.next,
                            reader.stream
                        );
                        reader.next += 1;
                    } else if stream.done && !stream.abandoned {
                        prop_assert!(
                            reader.subscriber.next_chunk().is_none(),
                            "step {i}: finished stream {} read past its last chunk",
                            reader.stream
                        );
                    }
                }
            }
            5 => {
                if let Some((publisher, id)) = publishers[k].take() {
                    publisher.finish();
                    model.streams[id].done = true;
                    if model.acquires[k] < 2 || model.resident > model.budget {
                        model.unlink(id);
                    }
                }
            }
            6 => {
                if let Some((publisher, id)) = publishers[k].take() {
                    drop(publisher);
                    let stream = &mut model.streams[id];
                    stream.done = true;
                    stream.abandoned = true;
                    model.unlink(id);
                }
            }
            _ => {
                cache.clear();
                let done: Vec<usize> = model
                    .linked
                    .iter()
                    .flatten()
                    .copied()
                    .filter(|&id| model.streams[id].done)
                    .collect();
                done.into_iter().for_each(|id| model.unlink(id));
            }
        }
        let linked = model.linked.iter().flatten().count();
        prop_assert_eq!(cache.len(), linked, "step {}: linked streams", i);
        let linked_bytes: u64 = model
            .linked
            .iter()
            .flatten()
            .map(|&id| model.streams[id].bytes)
            .sum();
        prop_assert_eq!(model.resident, linked_bytes, "step {}: model", i);
        prop_assert_eq!(cache.resident_bytes(), linked_bytes, "step {}", i);
        prop_assert_eq!(cache.peak_resident_bytes(), model.peak, "step {}", i);
        let mut kept_bytes = 0;
        for stream in &model.streams {
            prop_assert!(
                !(stream.abandoned && stream.linked),
                "step {i}: an abandoned stream stayed linked"
            );
            if stream.done && stream.linked {
                prop_assert!(
                    model.acquires[stream.key] >= 2,
                    "step {i}: a finished stream no one else asked for stayed linked"
                );
                kept_bytes += stream.bytes;
            }
        }
        prop_assert!(
            kept_bytes <= budget,
            "step {i}: kept streams overrun the budget"
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn stream_cache_matches_its_model(steps in proptest::collection::vec(any::<u32>(), 1..160)) {
        run(&steps)?;
    }
}

/// A fixed sequence that reaches every step kind, both halves of the
/// keep rule, a finish over budget, and re-production after `clear` and
/// after abandonment.
#[test]
fn scripted_sequence_covers_every_step() {
    // step = kind + 8 × key + 24 × pick
    let acquire = |k: u32| 8 * k;
    let publish = |k: u32, len: u32| 1 + 8 * k + 24 * (len - 1);
    let finish = |k: u32| 5 + 8 * k;
    let steps = [
        acquire(0),
        acquire(0), // a second acquire while live: key 0 is kept
        2,          // subscribe to key 0's producer
        publish(0, 8),
        3, // clone a reader
        4, // read
        publish(0, 8),
        finish(0), // two acquires, 16 packets resident: kept
        4 + 24,    // another reader reads on
        acquire(1),
        publish(1, 8),
        finish(1),  // nobody else asked, so it leaves
        acquire(1), // asked before: produces again
        publish(1, 8),
        publish(1, 8),
        finish(1),  // 32 packets resident: over budget, not kept
        acquire(0), // key 0 is untouched: subscribes
        acquire(2),
        publish(2, 8),
        6 + 16,     // abandon key 2
        acquire(2), // produces again
        publish(2, 4),
        finish(2),  // two acquires, 20 packets resident: kept
        7,          // clear: unlinks keys 0 and 2
        acquire(0), // produces again
        publish(0, 8),
        finish(0),  // clear forgot no count: kept
        acquire(0), // subscribes
        4,
        4 + 24,
        4 + 48,
    ];
    run(&steps).expect("scripted sequence");
}
