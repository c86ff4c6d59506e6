//! Where a follower fetches the primary's log from.
//!
//! [`LogSource`] abstracts the fetch side of segment shipping so the same
//! [`Follower`](crate::Follower) machinery works in-process (tests, the
//! fault matrix), over a shared directory (log shipping via NFS/rsync),
//! or across the wire against a live `dc-serve` TCP server.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use dc_common::{DcError, DcResult};
use dc_durable::{ship, CheckpointBundle, FetchOutcome, Manifest, SegmentShipment, WalFs};
use dc_serve::protocol::hex_decode;
use dc_serve::ShardedDcTree;

/// A primary's replication feed: the latest checkpoint bundle for
/// bootstrap, and LSN-continuous segment runs for tailing.
pub trait LogSource: Send + Sync {
    /// The latest committed checkpoint (manifest + images).
    fn fetch_checkpoint(&self) -> DcResult<CheckpointBundle>;
    /// Every live segment holding entries past `from_lsn`, or a
    /// `NeedCheckpoint` redirect when the primary has GC'd that history.
    fn fetch_segments(&self, from_lsn: u64) -> DcResult<FetchOutcome>;
}

/// Fetches from a primary engine in the same process (updates its
/// replication counters, exactly like a remote fetch would).
pub struct EngineSource(pub Arc<ShardedDcTree>);

impl LogSource for EngineSource {
    fn fetch_checkpoint(&self) -> DcResult<CheckpointBundle> {
        self.0.fetch_checkpoint()
    }

    fn fetch_segments(&self, from_lsn: u64) -> DcResult<FetchOutcome> {
        self.0.fetch_segments(from_lsn)
    }
}

/// Fetches straight from a WAL directory (the primary's own, or a copy
/// maintained by external log shipping). This is also what the crash
/// harness uses: a dead primary cannot answer fetches, but its directory
/// still can.
pub struct DirSource {
    /// The filesystem the directory lives on.
    pub fs: Arc<dyn WalFs>,
    /// The WAL directory.
    pub dir: PathBuf,
}

impl LogSource for DirSource {
    fn fetch_checkpoint(&self) -> DcResult<CheckpointBundle> {
        ship::fetch_checkpoint(&*self.fs, &self.dir)
    }

    fn fetch_segments(&self, from_lsn: u64) -> DcResult<FetchOutcome> {
        ship::fetch_segments(&*self.fs, &self.dir, from_lsn)
    }
}

/// Fetches over the dc-serve wire protocol (`FETCH_CHECKPOINT` /
/// `FETCH_SEGMENTS`), one connection per request.
pub struct TcpSource {
    /// `host:port` of the primary's TCP server.
    pub addr: String,
}

impl TcpSource {
    fn request(&self, line: &str) -> DcResult<String> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response)?;
        let response = response.trim_end().to_string();
        match response.strip_prefix("ERR ") {
            Some(msg) => Err(DcError::Config(format!("primary refused {line}: {msg}"))),
            None => Ok(response),
        }
    }
}

fn bad_reply(verb: &str, reply: &str) -> DcError {
    DcError::Corrupt(format!("malformed {verb} reply: {reply:.120}"))
}

impl LogSource for TcpSource {
    fn fetch_checkpoint(&self) -> DcResult<CheckpointBundle> {
        let reply = self.request("FETCH_CHECKPOINT")?;
        // OK CHECKPOINT <lsn> <start_seq> <shards> <hex>…
        let mut parts = reply.split_whitespace();
        if (parts.next(), parts.next()) != (Some("OK"), Some("CHECKPOINT")) {
            return Err(bad_reply("FETCH_CHECKPOINT", &reply));
        }
        let next_u64 = |parts: &mut std::str::SplitWhitespace<'_>| -> DcResult<u64> {
            parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad_reply("FETCH_CHECKPOINT", &reply))
        };
        let checkpoint_lsn = next_u64(&mut parts)?;
        let start_seq = next_u64(&mut parts)?;
        let shards = next_u64(&mut parts)? as u32;
        let manifest = Manifest {
            checkpoint_lsn,
            start_seq,
            shards,
        };
        // One hex token per shard image, in shard order.
        let images = parts
            .map(|tok| hex_decode(tok).ok_or_else(|| bad_reply("FETCH_CHECKPOINT", &reply)))
            .collect::<DcResult<Vec<_>>>()?;
        Ok(CheckpointBundle { manifest, images })
    }

    fn fetch_segments(&self, from_lsn: u64) -> DcResult<FetchOutcome> {
        let reply = self.request(&format!("FETCH_SEGMENTS {from_lsn}"))?;
        let mut parts = reply.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("OK"), Some("NEED_CHECKPOINT")) => {
                let lsn = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad_reply("FETCH_SEGMENTS", &reply))?;
                Ok(FetchOutcome::NeedCheckpoint {
                    checkpoint_lsn: lsn,
                })
            }
            (Some("OK"), Some("SEGMENTS")) => {
                let count: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad_reply("FETCH_SEGMENTS", &reply))?;
                let mut segments = Vec::with_capacity(count);
                for tok in parts {
                    let mut fields = tok.splitn(3, ':');
                    let seq = fields.next().and_then(|t| t.parse().ok());
                    let first_lsn = fields.next().and_then(|t| t.parse().ok());
                    let bytes = fields.next().and_then(hex_decode);
                    match (seq, first_lsn, bytes) {
                        (Some(seq), Some(first_lsn), Some(bytes)) => {
                            segments.push(SegmentShipment {
                                seq,
                                first_lsn,
                                bytes,
                            });
                        }
                        _ => return Err(bad_reply("FETCH_SEGMENTS", &reply)),
                    }
                }
                if segments.len() != count {
                    return Err(bad_reply("FETCH_SEGMENTS", &reply));
                }
                Ok(FetchOutcome::Segments(segments))
            }
            _ => Err(bad_reply("FETCH_SEGMENTS", &reply)),
        }
    }
}
