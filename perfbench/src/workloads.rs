//! The four benchmark workloads: what runs, under which engine, and with
//! which seeded inputs.

use crate::gen::{self, SeededSiege, SeededYcsb, SharedLog};
use nilicon::engine::Checkpointer;
use nilicon::traffic::ClientBehavior;
use nilicon::{NiLiConEngine, OptimizationConfig, PlacementEngine, ReplicationConfig};
use nilicon_container::{Application, ContainerSpec};
use nilicon_sim::CostModel;
use nilicon_workloads::{NodeApp, Scale, StreamclusterApp};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Redis, 8 YCSB clients, 1,000-op 50/50 batches: the memory-heavy
    /// server.
    RedisYcsb,
    /// Streamcluster as a continuous 4-thread batch job: guest execution.
    Streamcluster,
    /// Node, 128 SIEGE clients, repeated independent primary-fault trials.
    NodeFailover,
    /// SSDB with fsync, 8 YCSB clients, Reed–Solomon placement (k=2, n=3).
    SsdbCoded,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::RedisYcsb,
        Kind::Streamcluster,
        Kind::NodeFailover,
        Kind::SsdbCoded,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RedisYcsb => "redis-ycsb",
            Kind::Streamcluster => "streamcluster",
            Kind::NodeFailover => "node-failover",
            Kind::SsdbCoded => "ssdb-coded",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Batch job (steps) rather than a server (requests).
    pub fn is_batch(self) -> bool {
        self == Kind::Streamcluster
    }

    /// Run lengths, in epochs of 30 ms execution each.
    pub fn plan(self) -> Plan {
        match self {
            // ~6 batches per epoch: 180 epochs give >1,000 latency samples.
            Kind::RedisYcsb => Plan {
                warmup: 4,
                window: 180,
                stock: 40,
                trials: 0,
            },
            // ~1,250 steps per epoch.
            Kind::Streamcluster => Plan {
                warmup: 4,
                window: 100,
                stock: 30,
                trials: 0,
            },
            // ~88 requests per epoch; each trial is a fresh harness.
            Kind::NodeFailover => Plan {
                warmup: 4,
                window: 0,
                stock: 16,
                trials: 48,
            },
            // ~8 batches per epoch.
            Kind::SsdbCoded => Plan {
                warmup: 4,
                window: 160,
                stock: 40,
                trials: 0,
            },
        }
    }

    /// The engine options: the paper's NiLiCon, plus k-of-n placement for
    /// `ssdb-coded`.
    pub fn opts(self) -> OptimizationConfig {
        let mut o = OptimizationConfig::nilicon();
        if self == Kind::SsdbCoded {
            o.backups = 3;
            o.quorum = 2;
        }
        o
    }

    /// The harness configuration.
    pub fn config(self) -> ReplicationConfig {
        ReplicationConfig {
            opts: self.opts(),
            ..ReplicationConfig::default()
        }
    }

    /// A fresh replication engine. The placement engine is built directly:
    /// if it cannot be built the run fails instead of silently measuring
    /// the mirror engine.
    pub fn engine(self) -> Result<Box<dyn Checkpointer>, String> {
        let opts = self.opts();
        if opts.backups > 1 {
            let e = PlacementEngine::new(opts, CostModel::default())
                .map_err(|e| format!("{}: placement engine: {e}", self.name()))?;
            Ok(Box::new(e))
        } else {
            Ok(Box::new(NiLiConEngine::new(opts, CostModel::default())))
        }
    }

    /// Workload scale, with the input sizes the seed picks.
    pub fn scale(self, seed: u64) -> Scale {
        let mut s = Scale::bench();
        match self {
            Kind::Streamcluster => {
                // The seed picks the resident footprint (±4%), not the
                // points, so every seed runs the same clustering work.
                let mut r = seed ^ 0x5C;
                s.sc_ballast_pages = 43_200 + gen::splitmix(&mut r) % 3_601;
            }
            // The seed picks the document database size: ±5% footprint.
            Kind::NodeFailover => {
                let mut r = seed ^ 0xD0C;
                s.node_docs = 7_600 + (gen::splitmix(&mut r) % 801) as usize;
            }
            // Smaller batches than Redis: an SSDB batch of 1,000 fsync'd
            // operations outlasts an epoch, which would leave too few
            // latency samples.
            Kind::SsdbCoded => s.batch_ops = 100,
            _ => {}
        }
        s
    }

    /// The seeded client generator (servers only).
    pub fn clients(self, seed: u64, log: SharedLog) -> Option<Box<dyn ClientBehavior>> {
        let scale = self.scale(seed);
        match self {
            Kind::RedisYcsb | Kind::SsdbCoded => {
                Some(Box::new(SeededYcsb::new(8, scale, seed, log)))
            }
            Kind::NodeFailover => {
                let len = NodeApp::new(scale).response_len;
                // Node prefixes each page with a dynamic 4-byte hit count.
                Some(Box::new(SeededSiege::new(128, 4096, len, 4, seed, log)))
            }
            Kind::Streamcluster => None,
        }
    }

    /// Container, application and core count.
    pub fn build(self, seed: u64) -> (ContainerSpec, Box<dyn Application>, f64) {
        let scale = self.scale(seed);
        match self {
            Kind::RedisYcsb => {
                let w = nilicon_workloads::redis(scale, 8, None);
                (w.spec, w.app, w.parallelism)
            }
            Kind::SsdbCoded => {
                let w = nilicon_workloads::ssdb(scale, 8, None);
                (w.spec, w.app, w.parallelism)
            }
            Kind::NodeFailover => {
                let w = nilicon_workloads::node(scale, 128, None);
                (w.spec, w.app, w.parallelism)
            }
            Kind::Streamcluster => {
                let w = nilicon_workloads::streamcluster(scale, 4);
                let mut app = StreamclusterApp::new(scale);
                app.passes = u32::MAX; // continuous: never completes
                (w.spec, Box::new(app), w.parallelism)
            }
        }
    }
}

/// How long each part of a run lasts, in epochs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Epochs excluded from every metric (initial full sync, cold caches).
    pub warmup: u64,
    /// Post-warm-up epochs the virtual metrics cover (steady workloads).
    pub window: u64,
    /// Post-warm-up epochs of the unreplicated baseline run.
    pub stock: u64,
    /// Independent fault trials (0: the workload runs fault-free).
    pub trials: usize,
}

/// Check that every client generator is reachable from the seed.
pub fn check_seeding(seed: u64) -> Result<(), String> {
    for k in [Kind::RedisYcsb, Kind::NodeFailover] {
        gen::check_seeding(k.name(), seed, |s| {
            k.clients(s, SharedLog::default())
                .expect("server workloads have clients")
        })?;
    }
    Ok(())
}
