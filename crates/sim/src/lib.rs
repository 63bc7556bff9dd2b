//! Timing-approximate, trace-driven performance model and experiment
//! drivers for the CHiRP reproduction.
//!
//! The model follows the paper's §V methodology: an in-order pipeline that
//! accounts first-order latencies — the cache hierarchy, DRAM, a hashed
//! perceptron branch unit with BTB, L1 i/d TLBs and the unified L2 TLB
//! whose replacement policy is under study — and measures MPKI and IPC
//! across a range of page-walk penalties. Structures warm up on the first
//! half of each trace; statistics cover the second half.
//!
//! ```
//! use chirp_sim::{PolicyKind, SimConfig, Simulator};
//! use chirp_trace::gen::{ContextCopy, WorkloadGen};
//!
//! let trace = ContextCopy::default().generate_packed(20_000, 1);
//! let config = SimConfig::default();
//! let mut sim = Simulator::with_policy(&config, PolicyKind::Lru.build_dispatch(config.tlb.l2, 0));
//! let result = sim.run_columnar(&trace, config.warmup_fraction);
//! assert!(result.instructions > 0);
//! ```

pub mod config;
pub mod engine;
pub mod experiments;
pub mod frontend;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod runner;
pub mod sched;
pub mod store_cache;
pub mod telemetry;

pub use config::SimConfig;
pub use engine::Simulator;
pub use frontend::{
    group_sig_config, replay_factored, run_stream_factored, Backend, EventSegment, FactoredTrace,
    FrontEnd,
};
pub use metrics::RunResult;
pub use registry::{PolicyDispatch, PolicyKind};
pub use runner::{
    run_policy_group, run_stream_group, run_suite, run_suite_streamed, BenchRun, CacheStats,
    RunnerConfig, DEFAULT_STREAM_CHUNK,
};
pub use sched::{last_scheduler_summary, take_scheduler_summary, SchedulerSummary};
pub use telemetry::{
    read_series, run_suite_telemetry, write_series, EpochRecord, TelemetrySpec, UnitSeries,
};
