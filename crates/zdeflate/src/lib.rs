//! # pcs-zdeflate — a DEFLATE/gzip implementation, the reproduction's
//! zlib substitute
//!
//! The thesis measures how per-packet *compression* load affects capture
//! rates: the capture application calls zlib's `gzwrite()` on every packet
//! at levels 3 and 9 (Fig. 6.11, Fig. B.3), and a separate experiment pipes
//! `tcpdump` output through a `gzip` process (Fig. 6.12). This crate is the
//! zlib substitute: a real, self-contained compressor plus a complete
//! decoder for verification. The simulation does not run it: the simulated
//! compression load is charged from `OsCosts::compress_cycles_per_byte`
//! (pcs-hw's `COMPRESS_CYCLES`, cycles per byte by level, one table shared
//! by all four systems).
//!
//! * [`deflate()`](deflate::deflate) / [`inflate()`](inflate::inflate) — RFC 1951 streams (stored + fixed-Huffman
//!   encoder with hash-chain LZ77 and lazy matching; full decoder including
//!   dynamic-Huffman blocks);
//! * [`gz`] — RFC 1952 gzip framing with a `gzopen`/`gzwrite`/`gzclose`
//!   style streaming writer;
//! * [`crc32`] — the gzip checksum.

//!
//! ```
//! use pcs_zdeflate::{deflate, inflate, GzWriter, gunzip};
//!
//! let data = b"packet capture packet capture packet capture".to_vec();
//! let packed = deflate(&data, 6);
//! assert_eq!(inflate(&packed).unwrap(), data);
//!
//! let mut gz = GzWriter::new(3);
//! gz.write(&data);
//! assert_eq!(gunzip(&gz.finish()).unwrap(), data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
pub mod crc32;
pub mod deflate;
pub mod gz;
pub mod inflate;
pub mod tables;

pub use deflate::{deflate, LevelParams};
pub use gz::{gunzip, GzError, GzWriter};
pub use inflate::{inflate, InflateError};
