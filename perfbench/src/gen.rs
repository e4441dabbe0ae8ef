//! Seeded client generators owned by the benchmark.
//!
//! The library's `YcsbBehavior` and `SiegeBehavior` fix their per-client RNG
//! seeds, so a benchmark seed could not reach the request stream. These two
//! generators issue the same kinds of requests and validate responses the
//! same way (read-your-writes for YCSB via `value_pattern`/`KvResponse`,
//! golden-copy pages for SIEGE), but draw every choice from the `--seed`.
//!
//! Both write what they observe into a shared [`ClientLog`], which the
//! benchmark reads after the harness has consumed the generator.

use nilicon::traffic::ClientBehavior;
use nilicon_sim::time::Nanos;
use nilicon_workloads::{value_pattern, KvOp, KvRequest, KvResponse, Scale};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// SplitMix64: the seed expander for every random choice of the benchmark.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent stream `i` of `seed`.
fn stream(seed: u64, i: u64) -> u64 {
    let mut s = seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix(&mut s)
}

/// What the clients saw, shared between a generator and the benchmark.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Requests put on the wire.
    pub issued: u64,
    /// Responses received.
    pub responses: u64,
    /// Responses that failed validation.
    pub invalid: u64,
    /// Receipt time of every response, in arrival order (virtual ns).
    pub receipts: Vec<Nanos>,
    /// Responses received, per client.
    pub per_client: Vec<u64>,
    /// The first validation error, if any.
    pub first_error: Option<String>,
}

impl ClientLog {
    fn receive(&mut self, idx: usize, now: Nanos) {
        self.responses += 1;
        self.receipts.push(now);
        self.per_client[idx] += 1;
    }

    fn fail(&mut self, msg: String) {
        self.invalid += 1;
        self.first_error.get_or_insert(msg);
    }
}

/// A log handle the benchmark keeps while the harness owns the generator.
pub type SharedLog = Rc<RefCell<ClientLog>>;

fn verify_log(log: &SharedLog) -> Result<(), String> {
    let log = log.borrow();
    match &log.first_error {
        None => Ok(()),
        Some(e) => Err(format!("{} invalid response(s); first: {e}", log.invalid)),
    }
}

/// YCSB-style batched client: `batch_ops` operations per request, 50% reads
/// and 50% writes over a per-client slot partition. Every read must return
/// exactly the version this client last wrote (read-your-writes), with the
/// value bytes `value_pattern` defines.
#[derive(Debug)]
pub struct SeededYcsb {
    scale: Scale,
    slots_per_client: u32,
    rngs: Vec<u64>,
    versions: Vec<HashMap<u32, u64>>,
    expectations: Vec<Vec<(u32, u64)>>,
    log: SharedLog,
}

impl SeededYcsb {
    /// `clients` closed-loop clients over `scale.kv_records` slots.
    pub fn new(clients: usize, scale: Scale, seed: u64, log: SharedLog) -> Self {
        log.borrow_mut().per_client = vec![0; clients];
        SeededYcsb {
            scale,
            slots_per_client: (scale.kv_records / clients.max(1)) as u32,
            rngs: (0..clients as u64).map(|i| stream(seed, i)).collect(),
            versions: vec![HashMap::new(); clients],
            expectations: vec![Vec::new(); clients],
            log,
        }
    }
}

impl ClientBehavior for SeededYcsb {
    fn client_count(&self) -> usize {
        self.rngs.len()
    }

    fn next_request(&mut self, idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        let base = idx as u32 * self.slots_per_client;
        let mut ops = Vec::with_capacity(self.scale.batch_ops);
        let mut expected = Vec::new();
        for _ in 0..self.scale.batch_ops {
            let r = splitmix(&mut self.rngs[idx]);
            let slot = base + ((r >> 1) % self.slots_per_client as u64) as u32;
            if r & 1 == 0 {
                let version = self.versions[idx].get(&slot).copied().unwrap_or(0) + 1;
                self.versions[idx].insert(slot, version);
                ops.push(KvOp::Set {
                    slot,
                    version,
                    value: value_pattern(slot, version, self.scale.value_size),
                });
            } else {
                // The store preloads version 0.
                let version = self.versions[idx].get(&slot).copied().unwrap_or(0);
                expected.push((slot, version));
                ops.push(KvOp::Get { slot });
            }
        }
        self.expectations[idx] = expected;
        self.log.borrow_mut().issued += 1;
        Some(KvRequest { ops }.encode())
    }

    fn on_response(&mut self, idx: usize, resp: &[u8], now: Nanos, _latency: Nanos) {
        let mut log = self.log.borrow_mut();
        log.receive(idx, now);
        let decoded = match KvResponse::decode(resp) {
            Ok(d) => d,
            Err(e) => return log.fail(format!("client {idx}: undecodable response: {e}")),
        };
        let expected = std::mem::take(&mut self.expectations[idx]);
        if decoded.gets.len() != expected.len() {
            return log.fail(format!(
                "client {idx}: {} gets, expected {}",
                decoded.gets.len(),
                expected.len()
            ));
        }
        for ((slot, version, value), &(want_slot, want_version)) in
            decoded.gets.iter().zip(&expected)
        {
            // Version 0 may be an unloaded slot, which reads back empty.
            let ok = *slot == want_slot
                && *version == want_version
                && (value.is_empty()
                    || *value == value_pattern(*slot, *version, self.scale.value_size));
            if !ok {
                return log.fail(format!(
                    "client {idx}: slot {slot} v{version}, expected slot {want_slot} \
                     v{want_version} with its pattern"
                ));
            }
        }
    }

    fn verify(&self) -> Result<(), String> {
        verify_log(&self.log)
    }
}

/// The page a web server returns for page `id`: the same deterministic
/// generator the Node workload renders from, so every response can be
/// checked byte for byte against this golden copy.
pub fn golden_page(id: u64, len: usize) -> Vec<u8> {
    let mut s = id ^ 0xC0FFEE;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 41) as u8
        })
        .collect()
}

/// SIEGE-style web client: each request names a page id, and the response
/// must equal the golden copy past a `skip_prefix`-byte dynamic header.
#[derive(Debug)]
pub struct SeededSiege {
    page_ids: u64,
    response_len: usize,
    skip_prefix: usize,
    rngs: Vec<u64>,
    outstanding: Vec<Option<u32>>,
    log: SharedLog,
}

impl SeededSiege {
    /// `clients` closed-loop clients over `page_ids` pages.
    pub fn new(
        clients: usize,
        page_ids: u32,
        response_len: usize,
        skip_prefix: usize,
        seed: u64,
        log: SharedLog,
    ) -> Self {
        log.borrow_mut().per_client = vec![0; clients];
        SeededSiege {
            page_ids: page_ids as u64,
            response_len,
            skip_prefix,
            rngs: (0..clients as u64).map(|i| stream(seed, i)).collect(),
            outstanding: vec![None; clients],
            log,
        }
    }
}

impl ClientBehavior for SeededSiege {
    fn client_count(&self) -> usize {
        self.rngs.len()
    }

    fn next_request(&mut self, idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        let id = (splitmix(&mut self.rngs[idx]) % self.page_ids) as u32;
        self.outstanding[idx] = Some(id);
        self.log.borrow_mut().issued += 1;
        Some(id.to_le_bytes().to_vec())
    }

    fn on_response(&mut self, idx: usize, resp: &[u8], now: Nanos, _latency: Nanos) {
        let mut log = self.log.borrow_mut();
        log.receive(idx, now);
        let Some(id) = self.outstanding[idx].take() else {
            return log.fail(format!("client {idx}: response without a request"));
        };
        let golden = golden_page(id as u64, self.response_len);
        if resp.len() != golden.len() || resp[self.skip_prefix..] != golden[self.skip_prefix..] {
            log.fail(format!(
                "client {idx}: page {id} differs from the golden copy"
            ));
        }
    }

    fn verify(&self) -> Result<(), String> {
        verify_log(&self.log)
    }
}

/// FNV-1a digest of the first `per_client` requests of every client.
fn stream_digest(mut gen: Box<dyn ClientBehavior>, per_client: usize) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for _ in 0..per_client {
        for idx in 0..gen.client_count() {
            for b in gen.next_request(idx, 0).unwrap_or_default() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    h
}

/// Check that `make(seed)` gives an identical request stream twice and a
/// different one for another seed.
pub fn check_seeding(
    name: &str,
    seed: u64,
    make: impl Fn(u64) -> Box<dyn ClientBehavior>,
) -> Result<(), String> {
    let other = seed.wrapping_add(1);
    let a = stream_digest(make(seed), 4);
    let b = stream_digest(make(seed), 4);
    let c = stream_digest(make(other), 4);
    if a != b {
        return Err(format!(
            "{name}: seed {seed} gave two different request streams"
        ));
    }
    if a == c {
        return Err(format!(
            "{name}: seeds {seed} and {other} gave the same request stream"
        ));
    }
    Ok(())
}
