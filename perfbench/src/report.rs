//! The run's output: metrics with units, failure counts, and the
//! hardware-and-settings stamp.

use ips_obs::Json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    /// The metric list this run reports: per-layer when traced.
    pub wanted: &'static [(&'static str, &'static str)],
    /// Operations attempted: fits, chain runs and requests sent.
    pub attempted: usize,
    /// Operations that failed a check.
    pub failed: usize,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Deterministic details (digests, work counts) and sample counts.
    pub detail: Json,
}

impl Report {
    /// An empty report for a traced or an untraced run.
    pub fn new(trace: bool) -> Self {
        Report {
            wanted: if trace {
                crate::PER_LAYER
            } else {
                crate::END_TO_END
            },
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            detail: Json::object(),
        }
    }

    /// Records a metric under its listed unit when this run reports it;
    /// a metric of the other mode's list is dropped.
    ///
    /// # Panics
    /// Panics on a name in neither metric list (a benchmark bug).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        if let Some(&(_, unit)) = self.wanted.iter().find(|m| m.0 == name) {
            self.metrics.push(Metric { name, value, unit });
        } else {
            let mut all = crate::END_TO_END.iter().chain(crate::PER_LAYER);
            assert!(all.any(|m| m.0 == name), "metric {name} is not listed");
        }
    }

    /// Records a detail entry.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.detail.insert(key, value);
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A run is correct when nothing failed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Json::object();
        for m in &self.metrics {
            let mut v = Json::object();
            v.insert("value", m.value);
            v.insert("unit", m.unit);
            metrics.insert(m.name, v);
        }
        let mut out = Json::object();
        out.insert("correct", self.correct());
        out.insert("attempted", self.attempted);
        out.insert("failed", self.failed);
        out.insert("metrics", metrics);
        out.to_string_compact()
    }
}

/// What the run ran on and with which settings.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool, rate: Option<f64>) -> Json {
    let mut s = Json::object();
    s.insert(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    s.insert("cpu_model", cpu_model().unwrap_or_else(|| "unknown".into()));
    s.insert("os", std::env::consts::OS);
    s.insert("arch", std::env::consts::ARCH);
    s.insert("worker_threads", crate::WORKERS);
    if workload == "serve-mixed" {
        s.insert("setup_fit_threads", crate::SETUP_FIT_THREADS);
    }
    s.insert("max_batch", crate::MAX_BATCH);
    s.insert("workload", workload);
    s.insert("seed", seed);
    s.insert("run_seconds", seconds);
    s.insert("trace", trace);
    s.insert("offered_rate_rps", rate.map_or(Json::Null, Json::from));
    s
}

/// The CPU model from `/proc/cpuinfo`, where the platform has one.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}
