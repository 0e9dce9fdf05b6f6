//! Wall-clock microbenchmarks of the simmpi message fabric.
//!
//! Everything else in this crate measures *virtual* time — the simulated
//! cluster's clock, which is what the paper's figures are made of.  This
//! module measures the opposite: how fast the simulator host itself moves
//! messages.  Campaign sweeps run thousands of virtual-time simulations, so
//! host-side fabric overhead (mailbox matching, payload copies, wakeup
//! latency) directly bounds how many scenarios a sweep can cover.
//!
//! Each benchmark runs a small cluster with [`simmpi::run_cluster`] on the
//! *ideal* (zero-cost) machine model so that the measured wall-clock time is
//! dominated by the host fabric, not by the virtual-time bookkeeping, and
//! reports messages per wall-clock second plus the number of payload bytes
//! the datatype layer really copied ([`simmpi::copied_bytes`]).
//!
//! The repository's benchmark (`benchmarks/`, `simmpi.*` and `replication.*`
//! per-layer metrics) calls these functions in its traced run.

use replication::ReplicatedComm;
use simmpi::{run_cluster, ClusterConfig, Tag};
use std::time::Instant;

/// Result of one fabric microbenchmark.
#[derive(Debug, Clone)]
pub struct FabricBench {
    /// Benchmark name (stable identifier).
    pub name: String,
    /// Logical messages moved end-to-end (sender-side count).
    pub messages: u64,
    /// Logical payload bytes moved end-to-end (`messages * payload_size`).
    pub payload_bytes: u64,
    /// Wall-clock duration of the measured region, in seconds.
    pub wall_s: f64,
    /// `messages / wall_s`.
    pub msgs_per_sec: f64,
    /// Replication degree of the benchmark (1 for plain point-to-point).
    /// A degree-`r` fan-out moves `r²` physical copies per logical message,
    /// so logical throughput is expected to fall with the degree — but only
    /// linearly if the fabric amortizes per-send fixed costs across the
    /// fan-out.
    pub degree: usize,
    /// `msgs_per_sec / degree`: the degree-normalized efficiency.  A fabric
    /// whose fan-out path is O(degree) per logical send keeps this roughly
    /// flat from x2 to x4; a cliff here is the tracked anomaly.
    pub msgs_per_sec_per_degree: f64,
    /// Host bytes materialized by the datatype layer during the benchmark
    /// (serialization + deserialization copies; see
    /// [`simmpi::copied_bytes`]).
    pub bytes_copied: u64,
    /// True if the benchmark's steady state is expected to copy *no*
    /// payload bytes per message (persistent-payload send path): its copy
    /// budget is then independent of the message count.
    pub zero_copy: bool,
}

fn finish(
    name: String,
    messages: u64,
    payload_bytes: u64,
    degree: usize,
    zero_copy: bool,
    t0: Instant,
) -> FabricBench {
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    let msgs_per_sec = messages as f64 / wall_s;
    FabricBench {
        name,
        messages,
        payload_bytes,
        wall_s,
        msgs_per_sec,
        degree,
        msgs_per_sec_per_degree: msgs_per_sec / degree.max(1) as f64,
        bytes_copied: simmpi::copied_bytes(),
        zero_copy,
    }
}

/// Point-to-point streaming throughput: rank 0 pushes `messages` payloads of
/// `payload` bytes to rank 1 on a single `(source, tag)` channel, rank 1
/// drains them in order.  The friendliest case for any mailbox design (the
/// match is always at the front); measures per-message fixed overhead.
pub fn p2p_throughput(messages: usize, payload: usize) -> FabricBench {
    let config = ClusterConfig::ideal(2);
    let data = vec![1u8; payload];
    simmpi::reset_copied_bytes();
    let t0 = Instant::now();
    let report = run_cluster(&config, move |proc| {
        let world = proc.world();
        if world.rank() == 0 {
            for _ in 0..messages {
                world.send(&data, 1, 7).unwrap();
            }
        } else {
            for _ in 0..messages {
                let v: Vec<u8> = world.recv(0, 7).unwrap();
                assert_eq!(v.len(), payload);
            }
        }
    });
    assert!(!report.any_panicked());
    finish(
        "p2p_throughput".to_string(),
        messages as u64,
        (messages * payload) as u64,
        1,
        false,
        t0,
    )
}

/// Mailbox depth scaling: rank 0 delivers `tags` messages with distinct tags,
/// rank 1 receives them in *reverse* tag order, `rounds` times.  Every
/// receive therefore matches near the back of the queue — the adversarial
/// case for a flat mailbox scan (O(depth) per receive, O(depth²) per round)
/// and the bread-and-butter case for indexed per-`(comm, src, tag)` lanes
/// (O(1) per receive).
pub fn mailbox_depth(tags: usize, rounds: usize, payload: usize) -> FabricBench {
    let config = ClusterConfig::ideal(2);
    let data = vec![2u8; payload];
    let ack_tag = tags as Tag;
    simmpi::reset_copied_bytes();
    let t0 = Instant::now();
    let report = run_cluster(&config, move |proc| {
        let world = proc.world();
        if world.rank() == 0 {
            for _ in 0..rounds {
                for t in 0..tags {
                    world.send(&data, 1, t as Tag).unwrap();
                }
                // Wait for the drain ack so rounds never overlap in the
                // mailbox (keeps the depth exactly `tags`).
                let _: Vec<u8> = world.recv(1, ack_tag).unwrap();
            }
        } else {
            for _ in 0..rounds {
                for t in (0..tags).rev() {
                    let v: Vec<u8> = world.recv(0, t as Tag).unwrap();
                    assert_eq!(v.len(), payload);
                }
                world.send(&[1u8], 0, ack_tag).unwrap();
            }
        }
    });
    assert!(!report.any_panicked());
    let messages = (tags * rounds) as u64;
    finish(
        "mailbox_depth".to_string(),
        messages,
        messages * payload as u64,
        1,
        false,
        t0,
    )
}

/// Replica fan-out: a replicated cluster of `2 * degree` physical processes
/// (2 logical ranks), where logical rank 0 streams `messages` payloads to
/// logical rank 1 over the replicated channel.  Every replica of the sender
/// emits the full stream to every replica of the destination (the rMPI-style
/// discipline), so the fabric carries `degree²` copies per logical message
/// while each receiver consumes exactly one stream — the duplicates sit in
/// the mailbox, which punishes O(depth) matching, and the reference-counted
/// fan-out punishes any copy-per-destination payload path.  The sender uses
/// the persistent-payload send, so the steady state is fully zero-copy: the
/// measured rate is pure protocol + fabric overhead.
pub fn replica_fanout(degree: usize, messages: usize, payload_elems: usize) -> FabricBench {
    assert!(degree >= 1);
    let config = ClusterConfig::ideal(2 * degree);
    let data: Vec<f64> = (0..payload_elems).map(|i| i as f64).collect();
    simmpi::reset_copied_bytes();
    let t0 = Instant::now();
    let report = run_cluster(&config, move |proc| {
        let world = proc.world();
        let rcomm = ReplicatedComm::new(world, degree).unwrap();
        if rcomm.logical_rank() == 0 {
            // Persistent-payload pattern (the replicated analogue of MPI
            // persistent requests): the body is serialized once, every send
            // shares it by reference count, and the per-message sequence
            // number travels out-of-band in the frame head — the steady
            // state copies nothing.
            let body = simmpi::to_payload(&data);
            for _ in 0..messages {
                rcomm.send_logical_payload(&body, 1, 3, body.len()).unwrap();
            }
        } else {
            for _ in 0..messages {
                // Zero-copy receive: borrow the sender's serialized buffer
                // instead of materializing a vector per copy.
                let body = rcomm.recv_logical_payload(0, 3).unwrap();
                let view = simmpi::typed_view::<f64>(&body).unwrap();
                assert_eq!(view.len(), payload_elems);
            }
        }
    });
    assert!(!report.any_panicked());
    finish(
        format!("replica_fanout_x{degree}"),
        messages as u64,
        (messages * payload_elems * std::mem::size_of::<f64>()) as u64,
        degree,
        true,
        t0,
    )
}

/// Structural invariant on a finished benchmark.  Wall-clock numbers are
/// never asserted, so the unit test over a reduced suite holds on any host.
///
/// Copying benchmarks (plain send path) must have copied each logical
/// payload at least once (serialization is real) but no more than O(degree)
/// times — a copy-per-destination fan-out would show up as O(degree²)
/// copied bytes.  Zero-copy benchmarks (persistent-payload path) must show
/// copied bytes *independent of the message count*: one serialization per
/// sender replica for the whole run, nothing per message.
pub fn check_copy_budget(b: &FabricBench) -> Result<(), String> {
    if b.messages == 0 || b.wall_s <= 0.0 || !b.msgs_per_sec.is_finite() {
        return Err(format!("{}: degenerate measurement", b.name));
    }
    let per_msg = b.payload_bytes / b.messages.max(1);
    if b.zero_copy {
        if b.bytes_copied < per_msg {
            return Err(format!(
                "{}: copied {} < one payload {} — the body was never \
                 serialized at all",
                b.name, b.bytes_copied, per_msg
            ));
        }
        // One body serialization per sender replica, plus fixed slack for
        // control traffic; crucially this does NOT scale with `messages` —
        // any per-message copy creeping back into the persistent-payload
        // path trips this bound at bench scale.
        let budget = b.degree as u64 * per_msg + (1 << 20);
        if b.bytes_copied > budget {
            return Err(format!(
                "{}: copied {} bytes > zero-copy budget {} — the \
                 persistent-payload path is copying per message again",
                b.name, b.bytes_copied, budget
            ));
        }
        return Ok(());
    }
    if b.bytes_copied < b.payload_bytes {
        return Err(format!(
            "{}: copied {} < moved {} — payloads are not being serialized",
            b.name, b.bytes_copied, b.payload_bytes
        ));
    }
    // One serialization per sender replica plus one deserialization per
    // consuming receiver replica is 2·degree payload-sized copies; the +1
    // and the fixed slack absorb framing and control traffic.
    let budget = (2 * b.degree as u64 + 1) * b.payload_bytes + (1 << 20);
    if b.bytes_copied > budget {
        return Err(format!(
            "{}: copied {} bytes > O(degree) budget {} — the fan-out is \
             copying per destination again",
            b.name, b.bytes_copied, budget
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced suite for the structural unit test.
    fn smoke_suite() -> Vec<FabricBench> {
        vec![
            p2p_throughput(2_000, 64),
            mailbox_depth(256, 2, 16),
            replica_fanout(2, 200, 64),
            replica_fanout(4, 100, 64),
        ]
    }

    #[test]
    fn microbenchmarks_move_the_advertised_messages() {
        for b in smoke_suite() {
            assert!(b.messages > 0, "{}", b.name);
            assert!(b.wall_s > 0.0, "{}", b.name);
            assert!(b.msgs_per_sec > 0.0, "{}", b.name);
            let copy_floor = if b.zero_copy {
                b.payload_bytes / b.messages
            } else {
                b.payload_bytes
            };
            assert!(
                b.bytes_copied >= copy_floor,
                "{}: the fabric must serialize the payload at least once \
                 (copied {} < {})",
                b.name,
                b.bytes_copied,
                copy_floor
            );
            assert!(b.degree >= 1, "{}", b.name);
            let expected = b.msgs_per_sec / b.degree as f64;
            assert!(
                (b.msgs_per_sec_per_degree - expected).abs() < 1e-9 * expected.abs().max(1.0),
                "{}: efficiency field out of sync with msgs_per_sec",
                b.name
            );
            check_copy_budget(&b).unwrap();
        }
    }
}
