//! The benchmark's calls into each layer of the program, one function per
//! public entry point, each timed (and, in a traced run, logged as a span)
//! by [`timed`]. Workloads compose these; nothing here loops or decides
//! how long to measure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

use bw_analysis::{AnalysisConfig, CategoryHistogram, CheckKind, CheckPlan, ModuleAnalysis};
use bw_fault::{CampaignConfig, FaultModel, FaultOutcome};
use bw_ir::Module;
use bw_monitor::{BranchEvent, CheckTable, MonitorBuilder};
use bw_splash::Benchmark;
use bw_telemetry::Value;
use bw_vm::{engine, EngineKind, ExecConfig, MonitorMode, ProgramImage, RunResult};

use crate::trace::{timed, Tracer};

/// Text a program is compiled from.
#[derive(Clone, Debug)]
pub enum Source {
    /// The SPMD mini-language read by `bw_ir::frontend::compile`.
    Mini(String),
    /// The printed IR form read by `bw_ir::parse_module`.
    Bwir(String),
}

/// One input program of a workload.
#[derive(Clone, Debug)]
pub struct Program {
    /// Reference-table key (`fft`, `gen:17`, ...).
    pub name: String,
    /// What it is compiled from.
    pub source: Source,
}

/// Short, key-friendly name of a SPLASH port.
pub fn slug(b: Benchmark) -> &'static str {
    match b {
        Benchmark::OceanContig => "ocean-contig",
        Benchmark::Fft => "fft",
        Benchmark::Fmm => "fmm",
        Benchmark::OceanNoncontig => "ocean-noncontig",
        Benchmark::Radix => "radix",
        Benchmark::Raytrace => "raytrace",
        Benchmark::WaterNsquared => "water-nsquared",
    }
}

/// Wall time of each compile stage of one program, from a traced compile.
/// `prepare` is the whole of `ProgramImage::try_prepare`, which repeats
/// verify, analyze and plan before linking.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// Parse (front-end or IR text).
    pub parse: Duration,
    /// `bw_ir::verify_module`.
    pub verify: Duration,
    /// `ModuleAnalysis::run`.
    pub analyze: Duration,
    /// `CheckPlan::build`.
    pub plan: Duration,
    /// `ProgramImage::try_prepare`.
    pub prepare: Duration,
}

/// Deterministic size facts of a compiled program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileFacts {
    /// IR values over all functions.
    pub values: u64,
    /// Static branches found by the analysis.
    pub branches: u64,
    /// Branches the plan instruments with a check.
    pub checked: u64,
    /// Parallel-section branches per similarity category.
    pub hist: CategoryHistogram,
}

impl CompileFacts {
    /// Reads the facts off a prepared image.
    pub fn of(image: &ProgramImage) -> CompileFacts {
        CompileFacts {
            values: image
                .module
                .funcs
                .iter()
                .map(|f| f.num_values() as u64)
                .sum(),
            branches: image.analysis.branches.len() as u64,
            checked: image.plan.num_instrumented() as u64,
            hist: image.analysis.category_histogram(),
        }
    }

    /// The reference-table row: `shared thread_id partial none checked`.
    pub fn row(&self) -> String {
        let h = &self.hist;
        format!(
            "{} {} {} {} {}",
            h.shared, h.thread_id, h.partial, h.none, self.checked
        )
    }
}

fn parse(program: &Program, tracer: Option<&Tracer>) -> (Result<Module, String>, Duration) {
    let args = [("program", Value::from(program.name.as_str()))];
    match &program.source {
        Source::Mini(text) => timed(tracer, "compile", "ir", "frontend::compile", &args, || {
            bw_ir::frontend::compile(text).map_err(|e| format!("{}: {e}", program.name))
        }),
        Source::Bwir(text) => timed(tracer, "compile", "ir", "parse_module", &args, || {
            bw_ir::parse_module(text).map_err(|e| format!("{}: {e}", program.name))
        }),
    }
}

/// Calls verify, analyze and plan on their own; returns their times.
fn stages(module: &Module, name: &str, tracer: Option<&Tracer>) -> Result<[Duration; 3], String> {
    let args = [("program", Value::from(name))];
    let (verified, verify) = timed(tracer, "compile", "ir", "verify_module", &args, || {
        bw_ir::verify_module(module)
    });
    verified.map_err(|e| format!("{name}: {e}"))?;
    let (analysis, analyze) = timed(
        tracer,
        "compile",
        "analysis",
        "ModuleAnalysis::run",
        &args,
        || ModuleAnalysis::run(module),
    );
    let (_, plan) = timed(
        tracer,
        "compile",
        "analysis",
        "CheckPlan::build",
        &args,
        || CheckPlan::build(module, &analysis, AnalysisConfig::default()),
    );
    Ok([verify, analyze, plan])
}

/// Whether the next traced compile calls the standalone stages before
/// `try_prepare` (flips on every traced compile).
static STAGES_FIRST: AtomicBool = AtomicBool::new(true);

/// Takes `program` from source to a [`ProgramImage`]. Untraced, that is
/// a parse and one `try_prepare`. Traced, verify, analyze and plan are
/// also called on their own, so their share of `try_prepare` can be
/// measured; the stage times are returned. The standalone calls run
/// before `try_prepare` on every other traced compile and after it on the
/// rest, so warm caches and allocator state bias neither side of the
/// link-time difference.
pub fn compile(
    program: &Program,
    tracer: Option<&Tracer>,
) -> Result<(ProgramImage, Option<StageTimes>), String> {
    let name = program.name.as_str();
    let (module, parse_t) = parse(program, tracer);
    let module = module?;
    let prepare = |module: Module| {
        let args = [("program", Value::from(name))];
        let (image, took) = timed(
            tracer,
            "compile",
            "vm",
            "ProgramImage::try_prepare",
            &args,
            || ProgramImage::try_prepare(module, AnalysisConfig::default()),
        );
        image.map(|i| (i, took)).map_err(|e| format!("{name}: {e}"))
    };
    if tracer.is_none() {
        return Ok((prepare(module)?.0, None));
    }
    let (image, prepare_t, [verify, analyze, plan]) =
        if STAGES_FIRST.fetch_xor(true, Ordering::Relaxed) {
            let times = stages(&module, name, tracer)?;
            let (image, took) = prepare(module)?;
            (image, took, times)
        } else {
            let (image, took) = prepare(module)?;
            let times = stages(&image.module, name, tracer)?;
            (image, took, times)
        };
    let times = StageTimes {
        parse: parse_t,
        verify,
        analyze,
        plan,
        prepare: prepare_t,
    };
    Ok((image, Some(times)))
}

/// One fault-free run of `image` on `kind` with `nthreads` SPMD threads.
pub fn run(
    kind: EngineKind,
    image: &ProgramImage,
    nthreads: u32,
    mode: MonitorMode,
    port: &str,
    tracer: Option<&Tracer>,
) -> (RunResult, Duration) {
    let config = ExecConfig::new(nthreads).monitor(mode);
    let name = match mode {
        MonitorMode::Off => "run:off",
        MonitorMode::SendOnly => "run:send_only",
        MonitorMode::Enabled => "run:enabled",
    };
    timed(
        tracer,
        kind.name(),
        "vm",
        name,
        &[("port", Value::from(port))],
        || engine(kind).run(image, &config),
    )
}

/// FNV-1a digest of a run's outputs, the reference for "same outputs".
pub fn output_digest(result: &RunResult) -> u64 {
    let text = format!("{:?}", result.outputs);
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Sites and iterations of the synthetic ingest stream, per sender.
const INGEST_SITES: u64 = 64;
const INGEST_ITERS: u64 = 400;

/// Streams a clean uniform event sequence from two senders through a flat
/// `MonitorBuilder` monitor; returns events processed and the wall time
/// from spawn to verdict.
pub fn ingest(tracer: Option<&Tracer>) -> (u64, Duration) {
    let checks = CheckTable::from_kinds(vec![Some(CheckKind::SharedUniform)]);
    timed(
        tracer,
        "monitor",
        "monitor",
        "MonitorBuilder::spawn+join",
        &[],
        || {
            let (senders, handle) = MonitorBuilder::new(checks, 2).spawn();
            std::thread::scope(|scope| {
                for (t, mut sender) in senders.into_iter().enumerate() {
                    scope.spawn(move || {
                        for iter in 0..INGEST_ITERS {
                            for site in 0..INGEST_SITES {
                                sender.send(BranchEvent {
                                    branch: 0,
                                    thread: t as u32,
                                    site,
                                    iter,
                                    witness: 7,
                                    taken: true,
                                });
                            }
                        }
                    });
                }
            });
            handle.join().events_processed
        },
    )
}

/// One cell of the campaign grid: a port under one fault model with the
/// monitor on (the protected arm) or off (the unprotected arm).
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Index into the workload's port list.
    pub port: usize,
    /// Fault model.
    pub model: FaultModel,
    /// Monitor mode of golden and faulty runs.
    pub arm: MonitorMode,
}

impl Cell {
    /// `flip` or `cond`.
    pub fn model_name(&self) -> &'static str {
        match self.model {
            FaultModel::BranchFlip => "flip",
            FaultModel::ConditionBitFlip => "cond",
        }
    }

    /// `on` (protected) or `off` (unprotected).
    pub fn arm_name(&self) -> &'static str {
        match self.arm {
            MonitorMode::Off => "off",
            _ => "on",
        }
    }
}

/// One-letter code of an outcome in the reference table.
pub fn outcome_code(o: FaultOutcome) -> char {
    match o {
        FaultOutcome::NotActivated => 'n',
        FaultOutcome::Detected => 'd',
        FaultOutcome::Crashed => 'c',
        FaultOutcome::Hung => 'h',
        FaultOutcome::Masked => 'm',
        FaultOutcome::Sdc => 's',
    }
}

/// What one campaign call produced.
#[derive(Debug)]
pub struct Round {
    /// Outcomes in injection-index order.
    pub outcomes: Vec<FaultOutcome>,
    /// Per-injection `(index, outcome, latency ms)`, latency being the
    /// interval between consecutive progress reports on one worker thread.
    pub latencies: Vec<(usize, FaultOutcome, f64)>,
}

/// The golden (fault-free) run a cell's campaigns classify against.
pub fn golden(
    image: &ProgramImage,
    nthreads: u32,
    arm: MonitorMode,
    port: &str,
    tracer: Option<&Tracer>,
) -> (RunResult, Duration) {
    let config = ExecConfig::new(nthreads).monitor(arm);
    timed(
        tracer,
        "fault",
        "fault",
        "golden",
        &[("port", Value::from(port))],
        || engine(EngineKind::Sim).run(image, &config),
    )
}

/// Runs `injections` seeded injections of `cell` against `golden` on the
/// sim engine with `workers` campaign workers.
#[allow(clippy::too_many_arguments)]
pub fn campaign(
    image: &ProgramImage,
    golden: &RunResult,
    cell: Cell,
    nthreads: u32,
    seed: u64,
    injections: usize,
    workers: usize,
    port: &str,
    tracer: Option<&Tracer>,
) -> Result<Round, String> {
    let config = CampaignConfig::new(injections, cell.model, nthreads)
        .seed(seed)
        .workers(workers)
        .sim(ExecConfig::new(nthreads).monitor(cell.arm));
    let last: Mutex<Vec<(ThreadId, u64)>> = Mutex::new(Vec::new());
    let latencies: Mutex<Vec<(usize, FaultOutcome, f64)>> =
        Mutex::new(Vec::with_capacity(injections));
    let progress = |p: bw_fault::CampaignProgress| {
        let me = std::thread::current().id();
        let mut last = last.lock().expect("progress state poisoned");
        // Workers are numbered in the order they first report.
        let (worker, prev) = match last.iter().position(|(t, _)| *t == me) {
            Some(w) => (w, std::mem::replace(&mut last[w].1, p.elapsed_us)),
            None => {
                last.push((me, p.elapsed_us));
                (last.len() - 1, 0)
            }
        };
        drop(last);
        let dur_us = p.elapsed_us.saturating_sub(prev);
        latencies.lock().expect("latency log poisoned").push((
            p.index,
            p.outcome,
            dur_us as f64 / 1e3,
        ));
        if let Some(t) = tracer {
            let start = bw_telemetry::wall_now_us().saturating_sub(dur_us);
            t.span(
                &format!("fault.w{worker}"),
                "fault",
                "injection",
                start,
                Duration::from_micros(dur_us),
                &[
                    ("port", Value::from(port)),
                    ("outcome", Value::from(p.outcome.name())),
                ],
            );
        }
    };
    let args = [
        ("port", Value::from(port)),
        ("model", Value::from(cell.model_name())),
        ("arm", Value::from(cell.arm_name())),
        ("seed", Value::U64(seed)),
    ];
    let (result, _) = timed(
        tracer,
        "fault",
        "fault",
        "run_campaign_with_golden",
        &args,
        || bw_fault::run_campaign_with_golden(image, &config, golden, Some(&progress)),
    );
    let result = result.map_err(|e| format!("{port}: {e}"))?;
    Ok(Round {
        outcomes: result.records.iter().map(|r| r.outcome).collect(),
        latencies: latencies.into_inner().expect("latency log poisoned"),
    })
}
