//! The traced run's span log.
//!
//! Every call the benchmark makes into a layer is timed with [`timed`].
//! In a traced run the call is also recorded as a `tspan` record (the
//! schema of `bw_telemetry::trace`, wall-clock microseconds) into an
//! in-memory [`JsonlRecorder`]; the log is written to disk once, at exit,
//! so `bw timeline` and `bw timeline --chrome` can render it. Untraced runs
//! pass no tracer and pay one `Instant::now()` pair per call.

use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bw_telemetry::{JsonlRecorder, Recorder, TimeDomain, Value};

/// A growable byte buffer shared between the recorder and the writer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Spans of one traced run, held in memory until [`Tracer::write_to`].
pub struct Tracer {
    rec: JsonlRecorder,
    buf: SharedBuf,
}

impl Default for Tracer {
    fn default() -> Self {
        let buf = SharedBuf::default();
        Tracer {
            rec: JsonlRecorder::new(Box::new(buf.clone())),
            buf,
        }
    }
}

impl Tracer {
    /// Records one wall-clock span on lane `track`; `layer` is the span
    /// category (`ir`, `analysis`, `vm`, `monitor`, `fault`).
    pub fn span(
        &self,
        track: &str,
        layer: &str,
        name: &str,
        start_us: u64,
        dur: Duration,
        args: &[(&str, Value)],
    ) {
        bw_telemetry::record_span(
            &self.rec,
            TimeDomain::WallUs,
            track,
            layer,
            name,
            start_us,
            dur.as_micros() as u64,
            args,
        );
    }

    /// Number of records logged so far.
    pub fn records(&self) -> u64 {
        self.rec.records_emitted()
    }

    /// Writes the whole log as JSON Lines to `path`.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        self.rec.flush();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let bytes = self.buf.0.lock().expect("trace buffer poisoned");
        std::fs::write(path, &*bytes)
    }
}

/// Runs `f` and returns its result with its wall time. With a tracer the
/// call is logged as a span named `name` on lane `track`.
pub(crate) fn timed<T>(
    tracer: Option<&Tracer>,
    track: &str,
    layer: &str,
    name: &str,
    args: &[(&str, Value)],
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start_us = tracer.map(|_| bw_telemetry::wall_now_us());
    let started = Instant::now();
    let out = f();
    let dur = started.elapsed();
    if let (Some(t), Some(start_us)) = (tracer, start_us) {
        t.span(track, layer, name, start_us, dur, args);
    }
    (out, dur)
}

/// Milliseconds in a duration, with all its digits.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
