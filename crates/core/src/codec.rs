//! Binary wire codec for the full experiment vocabulary: [`Report`]s in
//! both execution shapes (round [`Trace`]s and asynchronous step
//! reports), every [`ExperimentError`] variant, and the
//! `(key, result)` records the [`SuiteCache`](crate::SuiteCache)
//! persists and journals.
//!
//! Built on `setagree-codec`'s [`Writer`]/[`Reader`] primitives, so it
//! inherits the wire tier's discipline: fixed-width little-endian
//! fields, decoding that **never panics** on arbitrary bytes, and
//! length/count vetting *before* any allocation. The encoding is
//! canonical — no optional or variable representations — so
//! encode → decode → encode is byte-identical, the property the
//! `tests/journal_roundtrip.rs` proptest battery pins across every
//! protocol family, executor, outcome and error variant.
//!
//! Layout, in encode order (all integers little-endian; `usize` fields
//! travel as `u64`):
//!
//! ```text
//! record   := key.hi u64 | key.lo u64 | result
//! result   := 0 | report            — a successful run
//!           | 1 | error             — a positioned experiment error
//! report   := shape | k u64 | protocol u8 | executor | input
//! shape    := 0 | predicted u64 | rounds u64 | msgs u64 | outcomes
//!           | 1 | total_steps u64 | async-outcomes
//! input    := count u64 (≥ 1) | value …
//! ```
//!
//! Values travel through [`CacheableValue::encode_wire`], implemented
//! for the integer types the experiments propose.

use std::sync::Arc;

use setagree_async::{AsyncOutcome, AsyncReport};
use setagree_codec::{DecodeError, Reader, Writer};
use setagree_conditions::LegalityParams;
use setagree_sync::{Outcome, Trace};
use setagree_types::{InputVector, ProcessId};

use crate::cache::{CacheKey, CacheableValue, CachedResult};
use crate::experiment::{Executor, ExperimentError, ProtocolKind, TransportKind};
use crate::report::{Execution, Report};

fn invalid(what: &'static str) -> DecodeError {
    DecodeError::Invalid { what }
}

/// Encodes one cache/journal record: the cell's key followed by its
/// result.
pub fn encode_record<V: CacheableValue>(
    key: &CacheKey,
    result: &CachedResult<V>,
    out: &mut Writer,
) {
    let (hi, lo) = key.parts();
    out.u64(hi);
    out.u64(lo);
    encode_result(result, out);
}

/// Decodes one record produced by [`encode_record`], demanding that the
/// input holds exactly one record.
///
/// # Errors
///
/// Any [`DecodeError`] — never a panic — on malformed input, including
/// trailing bytes after a complete record.
pub fn decode_record<V: CacheableValue>(
    bytes: &[u8],
) -> Result<(CacheKey, CachedResult<V>), DecodeError> {
    let mut r = Reader::new(bytes);
    let hi = r.u64()?;
    let lo = r.u64()?;
    let result = decode_result(&mut r)?;
    r.finish()?;
    Ok((CacheKey::from_parts(hi, lo), result))
}

/// Encodes a cell result: a successful [`Report`] or its
/// [`ExperimentError`].
pub fn encode_result<V: CacheableValue>(result: &CachedResult<V>, out: &mut Writer) {
    match result {
        Ok(report) => {
            out.u8(0);
            encode_report(report, out);
        }
        Err(error) => {
            out.u8(1);
            encode_error(error, out);
        }
    }
}

/// Decodes a result written by [`encode_result`].
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input; never panics.
pub fn decode_result<V: CacheableValue>(
    r: &mut Reader<'_>,
) -> Result<CachedResult<V>, DecodeError> {
    match r.u8()? {
        0 => Ok(Ok(decode_report(r)?)),
        1 => Ok(Err(decode_error(r)?)),
        _ => Err(invalid("result tag")),
    }
}

/// Encodes a full [`Report`]: execution record (either shape), `k`,
/// protocol, executor (seed included) and the input vector.
pub fn encode_report<V: CacheableValue>(report: &Report<V>, out: &mut Writer) {
    match report.execution() {
        Execution::Rounds {
            trace,
            predicted_rounds,
        } => {
            out.u8(0);
            out.usize(*predicted_rounds);
            out.usize(trace.rounds_executed());
            out.u64(trace.messages_delivered());
            out.usize(trace.outcomes().len());
            for outcome in trace.outcomes() {
                match outcome {
                    Outcome::Decided { value, round } => {
                        out.u8(0);
                        value.encode_wire(out);
                        out.usize(*round);
                    }
                    Outcome::Crashed { round } => {
                        out.u8(1);
                        out.usize(*round);
                    }
                    Outcome::Undecided => out.u8(2),
                }
            }
        }
        Execution::Steps(steps) => {
            out.u8(1);
            out.u64(steps.total_steps());
            out.usize(steps.outcomes().len());
            for outcome in steps.outcomes() {
                match outcome {
                    AsyncOutcome::Decided { value, steps } => {
                        out.u8(0);
                        value.encode_wire(out);
                        out.u64(*steps);
                    }
                    AsyncOutcome::Crashed => out.u8(1),
                    AsyncOutcome::Blocked => out.u8(2),
                    AsyncOutcome::Unfinished => out.u8(3),
                }
            }
        }
    }
    out.usize(report.k());
    encode_protocol(report.protocol(), out);
    encode_executor(report.executor(), out);
    out.usize(report.input().len());
    for value in report.input().iter() {
        value.encode_wire(out);
    }
}

/// Decodes a report written by [`encode_report`].
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input (including an empty input
/// vector, which no run can produce); never panics.
pub fn decode_report<V: CacheableValue>(r: &mut Reader<'_>) -> Result<Report<V>, DecodeError> {
    let execution = match r.u8()? {
        0 => {
            let predicted_rounds = r.usize()?;
            let rounds_executed = r.usize()?;
            let messages_delivered = r.u64()?;
            let count = r.count(1)?;
            let mut outcomes = Vec::with_capacity(count);
            for _ in 0..count {
                outcomes.push(match r.u8()? {
                    0 => Outcome::Decided {
                        value: V::decode_wire(r)?,
                        round: r.usize()?,
                    },
                    1 => Outcome::Crashed { round: r.usize()? },
                    2 => Outcome::Undecided,
                    _ => return Err(invalid("round outcome tag")),
                });
            }
            Execution::Rounds {
                trace: Trace::from_parts(outcomes, rounds_executed, messages_delivered),
                predicted_rounds,
            }
        }
        1 => {
            let total_steps = r.u64()?;
            let count = r.count(1)?;
            let mut outcomes = Vec::with_capacity(count);
            for _ in 0..count {
                outcomes.push(match r.u8()? {
                    0 => AsyncOutcome::Decided {
                        value: V::decode_wire(r)?,
                        steps: r.u64()?,
                    },
                    1 => AsyncOutcome::Crashed,
                    2 => AsyncOutcome::Blocked,
                    3 => AsyncOutcome::Unfinished,
                    _ => return Err(invalid("async outcome tag")),
                });
            }
            Execution::Steps(AsyncReport::from_parts(outcomes, total_steps))
        }
        _ => return Err(invalid("execution shape tag")),
    };
    let k = r.usize()?;
    let protocol = decode_protocol(r)?;
    let executor = decode_executor(r)?;
    let len = r.count(1)?;
    if len == 0 {
        return Err(invalid("empty input vector"));
    }
    let mut entries = Vec::with_capacity(len);
    for _ in 0..len {
        entries.push(V::decode_wire(r)?);
    }
    let input = Arc::new(InputVector::new(entries));
    Ok(match execution {
        Execution::Rounds {
            trace,
            predicted_rounds,
        } => Report::new(trace, input, k, predicted_rounds, protocol, executor),
        Execution::Steps(steps) => Report::new_async(steps, input, k, protocol, executor),
    })
}

fn encode_protocol(protocol: ProtocolKind, out: &mut Writer) {
    out.u8(match protocol {
        ProtocolKind::ConditionBased => 0,
        ProtocolKind::EarlyConditionBased => 1,
        ProtocolKind::EarlyDeciding => 2,
        ProtocolKind::FloodSet => 3,
        ProtocolKind::AsyncSetAgreement => 4,
    });
}

fn decode_protocol(r: &mut Reader<'_>) -> Result<ProtocolKind, DecodeError> {
    Ok(match r.u8()? {
        0 => ProtocolKind::ConditionBased,
        1 => ProtocolKind::EarlyConditionBased,
        2 => ProtocolKind::EarlyDeciding,
        3 => ProtocolKind::FloodSet,
        4 => ProtocolKind::AsyncSetAgreement,
        _ => return Err(invalid("protocol tag")),
    })
}

fn encode_executor(executor: Executor, out: &mut Writer) {
    match executor {
        Executor::Simulator => out.u8(0),
        Executor::Threaded => out.u8(1),
        Executor::AsyncSharedMemory { seed } => {
            out.u8(2);
            out.u64(seed);
        }
        Executor::AsyncMessagePassing { seed } => {
            out.u8(3);
            out.u64(seed);
        }
        Executor::Networked { transport } => {
            out.u8(4);
            encode_transport(transport, out);
        }
    }
}

fn decode_executor(r: &mut Reader<'_>) -> Result<Executor, DecodeError> {
    Ok(match r.u8()? {
        0 => Executor::Simulator,
        1 => Executor::Threaded,
        2 => Executor::AsyncSharedMemory { seed: r.u64()? },
        3 => Executor::AsyncMessagePassing { seed: r.u64()? },
        4 => Executor::Networked {
            transport: decode_transport(r)?,
        },
        _ => return Err(invalid("executor tag")),
    })
}

fn encode_transport(transport: TransportKind, out: &mut Writer) {
    out.u8(match transport {
        TransportKind::Loopback => 0,
        TransportKind::Tcp => 1,
    });
}

fn decode_transport(r: &mut Reader<'_>) -> Result<TransportKind, DecodeError> {
    Ok(match r.u8()? {
        0 => TransportKind::Loopback,
        1 => TransportKind::Tcp,
        _ => return Err(invalid("transport tag")),
    })
}

/// Encodes an [`ExperimentError`] — every variant, so warm reruns
/// reproduce validation failures without re-validating.
pub fn encode_error(error: &ExperimentError, out: &mut Writer) {
    match error {
        ExperimentError::MissingInput => out.u8(0),
        ExperimentError::InputSizeMismatch { expected, got } => {
            out.u8(1);
            out.usize(*expected);
            out.usize(*got);
        }
        ExperimentError::ZeroK => out.u8(2),
        ExperimentError::TooManyCrashes { t, scheduled } => {
            out.u8(3);
            out.usize(*t);
            out.usize(*scheduled);
        }
        ExperimentError::OracleMismatch { expected, got } => {
            out.u8(4);
            out.usize(expected.x());
            out.usize(expected.ell());
            out.usize(got.x());
            out.usize(got.ell());
        }
        ExperimentError::RoundLimitExceeded { limit } => {
            out.u8(5);
            out.usize(*limit);
        }
        ExperimentError::SystemSizeMismatch { processes, pattern } => {
            out.u8(6);
            out.usize(*processes);
            out.usize(*pattern);
        }
        ExperimentError::ProcessPanicked { process } => {
            out.u8(7);
            out.usize(process.index());
        }
        ExperimentError::UnsupportedAdversary { executor } => {
            out.u8(8);
            encode_executor(*executor, out);
        }
        ExperimentError::UnknownCrashVictim { victim, n } => {
            out.u8(9);
            out.usize(victim.index());
            out.usize(*n);
        }
        ExperimentError::UnsupportedProtocol { executor, protocol } => {
            out.u8(10);
            encode_executor(*executor, out);
            encode_protocol(*protocol, out);
        }
        ExperimentError::UnsupportedTransport { transport } => {
            out.u8(11);
            encode_transport(*transport, out);
        }
        ExperimentError::Internal { message } => {
            out.u8(12);
            out.str(message);
        }
        ExperimentError::RoundTimeout { round, peers } => {
            out.u8(13);
            out.usize(*round);
            out.usize(peers.len());
            for peer in peers {
                out.usize(peer.index());
            }
        }
    }
}

/// Decodes an error written by [`encode_error`].
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input (unknown tags, legality
/// parameters no [`LegalityParams::new`] would accept, bad UTF-8);
/// never panics.
pub fn decode_error(r: &mut Reader<'_>) -> Result<ExperimentError, DecodeError> {
    let params = |x, ell| LegalityParams::new(x, ell).map_err(|_| invalid("legality params"));
    Ok(match r.u8()? {
        0 => ExperimentError::MissingInput,
        1 => ExperimentError::InputSizeMismatch {
            expected: r.usize()?,
            got: r.usize()?,
        },
        2 => ExperimentError::ZeroK,
        3 => ExperimentError::TooManyCrashes {
            t: r.usize()?,
            scheduled: r.usize()?,
        },
        4 => ExperimentError::OracleMismatch {
            expected: params(r.usize()?, r.usize()?)?,
            got: params(r.usize()?, r.usize()?)?,
        },
        5 => ExperimentError::RoundLimitExceeded { limit: r.usize()? },
        6 => ExperimentError::SystemSizeMismatch {
            processes: r.usize()?,
            pattern: r.usize()?,
        },
        7 => ExperimentError::ProcessPanicked {
            process: ProcessId::new(r.usize()?),
        },
        8 => ExperimentError::UnsupportedAdversary {
            executor: decode_executor(r)?,
        },
        9 => ExperimentError::UnknownCrashVictim {
            victim: ProcessId::new(r.usize()?),
            n: r.usize()?,
        },
        10 => ExperimentError::UnsupportedProtocol {
            executor: decode_executor(r)?,
            protocol: decode_protocol(r)?,
        },
        11 => ExperimentError::UnsupportedTransport {
            transport: decode_transport(r)?,
        },
        12 => ExperimentError::Internal {
            message: r.str()?.to_owned(),
        },
        13 => ExperimentError::RoundTimeout {
            round: r.usize()?,
            peers: {
                let count = r.count(1)?;
                let mut peers = Vec::with_capacity(count);
                for _ in 0..count {
                    peers.push(ProcessId::new(r.usize()?));
                }
                peers
            },
        },
        _ => return Err(invalid("error tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::stable_pair;

    fn record_bytes(key: &CacheKey, result: &CachedResult<u32>) -> Vec<u8> {
        let mut out = Writer::new();
        encode_record(key, result, &mut out);
        out.into_vec()
    }

    fn all_errors() -> Vec<ExperimentError> {
        let params = |x, ell| LegalityParams::new(x, ell).unwrap();
        vec![
            ExperimentError::MissingInput,
            ExperimentError::InputSizeMismatch {
                expected: 4,
                got: 6,
            },
            ExperimentError::ZeroK,
            ExperimentError::TooManyCrashes { t: 2, scheduled: 3 },
            ExperimentError::OracleMismatch {
                expected: params(1, 1),
                got: params(3, 2),
            },
            ExperimentError::RoundLimitExceeded { limit: 12 },
            ExperimentError::SystemSizeMismatch {
                processes: 8,
                pattern: 6,
            },
            ExperimentError::ProcessPanicked {
                process: ProcessId::new(3),
            },
            ExperimentError::UnsupportedAdversary {
                executor: Executor::AsyncSharedMemory { seed: 9 },
            },
            ExperimentError::UnknownCrashVictim {
                victim: ProcessId::new(7),
                n: 4,
            },
            ExperimentError::UnsupportedProtocol {
                executor: Executor::Networked {
                    transport: TransportKind::Tcp,
                },
                protocol: ProtocolKind::AsyncSetAgreement,
            },
            ExperimentError::UnsupportedTransport {
                transport: TransportKind::Tcp,
            },
            ExperimentError::Internal {
                message: "spaces, %, é → ∞, and\nnewlines".into(),
            },
            ExperimentError::RoundTimeout {
                round: 3,
                peers: vec![ProcessId::new(1), ProcessId::new(4)],
            },
        ]
    }

    #[test]
    fn every_error_variant_round_trips_byte_identically() {
        for error in all_errors() {
            let key = CacheKey::combine(&[stable_pair(&format!("{error:?}"))]);
            let bytes = record_bytes(&key, &Err(error.clone()));
            let (back_key, back) = decode_record::<u32>(&bytes).expect("round trip");
            assert_eq!(back_key, key);
            assert_eq!(back, Err(error));
            assert_eq!(record_bytes(&back_key, &back), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn reports_in_both_shapes_round_trip() {
        let input = Arc::new(InputVector::new(vec![7u32, 7, 2, 9]));
        let rounds: Report<u32> = Report::new(
            Trace::from_parts(
                vec![
                    Outcome::Decided { value: 7, round: 2 },
                    Outcome::Crashed { round: 1 },
                    Outcome::Undecided,
                    Outcome::Decided { value: 9, round: 3 },
                ],
                3,
                42,
            ),
            Arc::clone(&input),
            2,
            3,
            ProtocolKind::ConditionBased,
            Executor::Threaded,
        );
        let steps: Report<u32> = Report::new_async(
            AsyncReport::from_parts(
                vec![
                    AsyncOutcome::Decided {
                        value: 7,
                        steps: 11,
                    },
                    AsyncOutcome::Crashed,
                    AsyncOutcome::Blocked,
                    AsyncOutcome::Unfinished,
                ],
                99,
            ),
            input,
            1,
            ProtocolKind::AsyncSetAgreement,
            Executor::AsyncMessagePassing { seed: 5 },
        );
        for report in [rounds, steps] {
            let mut out = Writer::new();
            encode_result(&Ok(report.clone()), &mut out);
            let bytes = out.into_vec();
            let mut r = Reader::new(&bytes);
            let back = decode_result::<u32>(&mut r).expect("round trip");
            r.finish().expect("nothing trailing");
            assert_eq!(back, Ok(report));
            let mut again = Writer::new();
            encode_result(&back, &mut again);
            assert_eq!(again.into_vec(), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_never_decode_trailing_garbage() {
        // A deterministic pseudo-random probe; the real fuzz battery
        // lives in tests/journal_roundtrip.rs.
        let mut state = 0x2545F491_4F6CDD1Du64;
        for len in 0..256usize {
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                bytes.push(state as u8);
            }
            let _ = decode_record::<u32>(&bytes);
        }
        // A valid record plus one trailing byte is malformed, not valid.
        let key = CacheKey::combine(&[stable_pair(&1u8)]);
        let mut bytes = record_bytes(&key, &Err(ExperimentError::ZeroK));
        bytes.push(0);
        assert_eq!(
            decode_record::<u32>(&bytes),
            Err(DecodeError::Invalid {
                what: "trailing bytes"
            })
        );
    }

    #[test]
    fn hostile_outcome_counts_are_rejected_before_allocating() {
        let mut out = Writer::new();
        out.u64(1); // key hi
        out.u64(2); // key lo
        out.u8(0); // ok
        out.u8(0); // rounds shape
        out.usize(1); // predicted
        out.usize(1); // executed
        out.u64(0); // messages
        out.u64(u64::MAX); // outcome count: hostile
        let bytes = out.into_vec();
        assert_eq!(
            decode_record::<u32>(&bytes),
            Err(DecodeError::Oversized { claimed: u64::MAX })
        );
    }
}
