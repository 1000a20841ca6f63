//! The online classification server: batch admission over a model
//! registry, scored by the engine's scheduler.
//!
//! Requests accumulate in an admission queue ([`IpsServer::submit`]) and
//! are scored as one batch ([`IpsServer::flush`]): the batch is grouped
//! by model (sorted name order), partitioned into [`TaskPartition`] work
//! items, and evaluated across the engine's [`WorkerPool`] — so
//! throughput scales with worker threads while the partition itself
//! stays a pure function of the workload and the chunk knob. The server
//! owns one pool for its lifetime: its helper threads are spawned by the
//! first batch that needs them and parked between flushes, and the
//! thread calling [`IpsServer::flush`] scores as worker 0.
//!
//! **Determinism contract** (DESIGN.md §14): every scoring path routes
//! through the model head's one scorer
//! ([`ShapeletTransform::score`](ips_classify::ShapeletTransform::score)),
//! which scores the request's window in place. The shapelets' side was
//! prepared when the model was built; the window's statistics are
//! computed per request. Which path serves a shapelet — the naive loop
//! or the FFT kernel — is a pure function of its length and the
//! window's, and only kernel requests read a series plan from the work
//! item's [`DistCache`], keyed by content, where a shared plan gives the
//! bits a fresh one would. Which requests share a work item therefore
//! cannot change any label, and batch responses are bit-identical to
//! [`IpsServer::classify_now`] on the same request, at every thread
//! count and every chunk size; responses always come back in submission
//! order.

use ips_core::{ChunkSize, ExecContext, IpsError, TaskPartition, WorkerPool};
use ips_distance::{CacheStats, DistCache};
use ips_obs::MetricsRegistry;

use crate::persist::ServableModel;
use crate::registry::ModelRegistry;

/// Server knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads for batch scoring (`0` = machine parallelism).
    pub num_threads: usize,
    /// Queue depth that triggers an automatic flush on
    /// [`IpsServer::submit`].
    pub max_batch: usize,
    /// Work-item granularity for batch scoring (see [`ChunkSize`]). It
    /// moves throughput, never a label: each item scores its requests
    /// through one [`DistCache`], which only kernel-served shapelets read.
    pub chunk_size: ChunkSize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            num_threads: 0,
            max_batch: 64,
            chunk_size: ChunkSize::Auto,
        }
    }
}

impl ServeConfig {
    /// Rejects unusable knob values with typed errors.
    pub fn validate(&self) -> Result<(), IpsError> {
        if self.max_batch == 0 {
            return Err(IpsError::InvalidConfig {
                field: "max_batch",
                message: "admission queue depth must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// One classification request: a window of raw values addressed to a
/// named model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyRequest {
    /// Caller-chosen correlation id, echoed back in the response.
    pub id: u64,
    /// Registry name of the model to score against.
    pub model: String,
    /// The raw window values.
    pub window: Vec<f64>,
}

/// The classification of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifyResponse {
    /// The request's correlation id.
    pub id: u64,
    /// The model that scored it.
    pub model: String,
    /// The predicted class label.
    pub label: u32,
}

/// A long-lived classification server over an immutable model registry.
pub struct IpsServer {
    registry: ModelRegistry,
    config: ServeConfig,
    ctx: ExecContext<'static>,
    queue: Vec<ClassifyRequest>,
    cache_stats: CacheStats,
}

impl std::fmt::Debug for IpsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IpsServer")
            .field("models", &self.registry.names())
            .field("config", &self.config)
            .field("pending", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl IpsServer {
    /// Builds a server; the registry is fixed for the server's lifetime.
    pub fn new(registry: ModelRegistry, config: ServeConfig) -> Result<Self, IpsError> {
        config.validate()?;
        Ok(Self {
            registry,
            config,
            ctx: ExecContext::new(WorkerPool::new(config.num_threads)),
            queue: Vec::new(),
            cache_stats: CacheStats::default(),
        })
    }

    /// The models this server routes to.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The server's knobs.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The resolved worker-thread count.
    pub fn threads(&self) -> usize {
        self.ctx.workers().threads()
    }

    /// Serving telemetry: `serve.*` counters and spans.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.ctx.metrics()
    }

    /// Cumulative distance-cache statistics across all flushed batches.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// Requests currently queued and not yet flushed.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    fn lookup(&self, request: &ClassifyRequest) -> Result<&ServableModel, IpsError> {
        let model = self
            .registry
            .get(&request.model)
            .ok_or_else(|| IpsError::UnknownModel(request.model.clone()))?;
        if request.window.is_empty() {
            return Err(IpsError::InvalidData(ips_tsdata::Error::Invalid(format!(
                "request {}: empty window",
                request.id
            ))));
        }
        if let Some(pos) = request.window.iter().position(|v| !v.is_finite()) {
            return Err(IpsError::InvalidData(ips_tsdata::Error::Invalid(format!(
                "request {}: non-finite value at position {pos}",
                request.id
            ))));
        }
        Ok(model)
    }

    /// Admits one request. Invalid requests are rejected *here*, with a
    /// typed error, so the batch path only ever sees scoreable work. When
    /// admission fills the queue to `max_batch`, the batch is flushed
    /// inline and its responses returned.
    pub fn submit(
        &mut self,
        request: ClassifyRequest,
    ) -> Result<Option<Vec<ClassifyResponse>>, IpsError> {
        if let Err(e) = self.lookup(&request) {
            self.ctx.metrics().incr("serve.rejected", 1);
            return Err(e);
        }
        self.ctx.metrics().incr("serve.requests", 1);
        self.queue.push(request);
        if self.queue.len() >= self.config.max_batch {
            return Ok(Some(self.flush()?));
        }
        Ok(None)
    }

    /// Scores everything queued as one batch and returns the responses in
    /// submission order. A no-op on an empty queue.
    pub fn flush(&mut self) -> Result<Vec<ClassifyResponse>, IpsError> {
        let batch = std::mem::take(&mut self.queue);
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let span = self.ctx.metrics().time("serve.batch");
        // Group by model in sorted-name order, keeping submission order
        // within each group — the class-major partition below then gives a
        // fixed merge order regardless of threads.
        let mut groups: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
        for (i, request) in batch.iter().enumerate() {
            groups.entry(request.model.as_str()).or_default().push(i);
        }
        let models: Vec<&ServableModel> = groups
            .keys()
            .map(|name| {
                self.registry
                    .get(name)
                    .ok_or_else(|| IpsError::UnknownModel((*name).to_string()))
            })
            .collect::<Result<_, _>>()?;
        let indices: Vec<Vec<usize>> = groups.into_values().collect();
        let counts: Vec<usize> = indices.iter().map(Vec::len).collect();
        let partition = TaskPartition::new(&counts, self.config.chunk_size);
        let item_results = partition
            .try_run(self.ctx.workers(), |item| {
                // One cache per work item, never shared across threads:
                // it counts the item's evals and keeps the series plans
                // and FFT tables of the shapelets the kernel serves.
                let mut cache = DistCache::new();
                let labels: Vec<(usize, u32)> = indices[item.class_idx][item.start..item.end]
                    .iter()
                    .map(|&qi| {
                        let model = models[item.class_idx];
                        (qi, model.predict_with_cache(&batch[qi].window, &mut cache))
                    })
                    .collect();
                (labels, cache.stats())
            })
            .map_err(|reason| IpsError::StageFailed {
                stage: "serve.batch",
                reason,
            })?;
        let mut labels = vec![0u32; batch.len()];
        for (item_labels, stats) in item_results {
            self.cache_stats.merge(&stats);
            for (qi, label) in item_labels {
                labels[qi] = label;
            }
        }
        let responses: Vec<ClassifyResponse> = batch
            .into_iter()
            .zip(labels)
            .map(|(request, label)| ClassifyResponse {
                id: request.id,
                model: request.model,
                label,
            })
            .collect();
        let metrics = self.ctx.metrics();
        metrics.incr("serve.batches", 1);
        metrics.incr("serve.responses", responses.len() as u64);
        metrics.incr("serve.sched_items", partition.len() as u64);
        drop(span);
        Ok(responses)
    }

    /// Scores one request immediately, bypassing the queue — the
    /// reference path batch results are bit-identical to.
    pub fn classify_now(&self, request: &ClassifyRequest) -> Result<ClassifyResponse, IpsError> {
        let model = self.lookup(request)?;
        let _span = self.ctx.metrics().time("serve.single");
        let label = model.predict_with_cache(&request.window, &mut DistCache::new());
        self.ctx.metrics().incr("serve.singles", 1);
        Ok(ClassifyResponse {
            id: request.id,
            model: request.model.clone(),
            label,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_classify::svm::SvmParams;
    use ips_classify::{LinearSvm, Shapelet, ShapeletTransform};

    fn model(name: &str, flip: f64) -> ServableModel {
        let shapelets = vec![
            Shapelet::new(vec![flip * 5.0, flip * 6.0, flip * 5.0], 0),
            Shapelet::new(vec![flip * -5.0, flip * -6.0, flip * -5.0], 1),
        ];
        // Features are (distance to class-0 shapelet, distance to class-1
        // shapelet): near-zero first coordinate ⇒ class 0.
        let features = vec![
            vec![0.1, 9.0],
            vec![0.3, 8.0],
            vec![9.0, 0.2],
            vec![8.0, 0.4],
        ];
        let svm = LinearSvm::fit(&features, &[0, 0, 1, 1], SvmParams::default());
        ServableModel::new(name, ShapeletTransform::new(shapelets, false), svm).unwrap()
    }

    fn two_model_registry() -> ModelRegistry {
        let mut registry = ModelRegistry::new();
        registry.insert(model("up", 1.0)).unwrap();
        registry.insert(model("down", -1.0)).unwrap();
        registry
    }

    /// A deterministic mixed request stream: windows embed one of the two
    /// planted patterns at varying offsets, alternating models.
    fn stream(n: usize) -> Vec<ClassifyRequest> {
        (0..n)
            .map(|i| {
                let mut window = vec![0.25 * (i % 7) as f64; 16];
                let at = i % 12;
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                let flip = if i % 3 == 0 { 1.0 } else { -1.0 };
                for (j, v) in [5.0, 6.0, 5.0].iter().enumerate() {
                    window[at + j] = sign * flip * v;
                }
                ClassifyRequest {
                    id: i as u64,
                    model: if i % 3 == 0 {
                        "up".into()
                    } else {
                        "down".into()
                    },
                    window,
                }
            })
            .collect()
    }

    fn serve_all(config: ServeConfig, requests: &[ClassifyRequest]) -> Vec<ClassifyResponse> {
        let mut server = IpsServer::new(two_model_registry(), config).unwrap();
        let mut responses = Vec::new();
        for request in requests {
            if let Some(batch) = server.submit(request.clone()).unwrap() {
                responses.extend(batch);
            }
        }
        responses.extend(server.flush().unwrap());
        responses
    }

    #[test]
    fn batch_results_are_bit_identical_to_single_request_scoring() {
        let requests = stream(40);
        let config = ServeConfig {
            num_threads: 4,
            max_batch: 16,
            chunk_size: ChunkSize::Auto,
        };
        let responses = serve_all(config, &requests);
        assert_eq!(responses.len(), requests.len());
        let reference = IpsServer::new(two_model_registry(), ServeConfig::default()).unwrap();
        for (request, response) in requests.iter().zip(&responses) {
            assert_eq!(response.id, request.id, "submission order preserved");
            assert_eq!(&reference.classify_now(request).unwrap(), response);
        }
    }

    #[test]
    fn responses_are_invariant_across_threads_and_chunking() {
        let requests = stream(30);
        let baseline = serve_all(
            ServeConfig {
                num_threads: 1,
                max_batch: 10,
                chunk_size: ChunkSize::Fixed(1),
            },
            &requests,
        );
        for threads in [2, 4] {
            for chunk in [ChunkSize::Auto, ChunkSize::Fixed(3), ChunkSize::Fixed(64)] {
                let got = serve_all(
                    ServeConfig {
                        num_threads: threads,
                        max_batch: 10,
                        chunk_size: chunk,
                    },
                    &requests,
                );
                assert_eq!(got, baseline, "threads={threads} chunk={chunk:?}");
            }
        }
    }

    #[test]
    fn submit_flushes_exactly_at_max_batch() {
        let requests = stream(7);
        let mut server = IpsServer::new(
            two_model_registry(),
            ServeConfig {
                max_batch: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let mut flushed = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            match server.submit(request.clone()).unwrap() {
                Some(batch) => {
                    assert_eq!(batch.len(), 3, "request {i}");
                    assert_eq!(server.pending(), 0);
                    flushed.extend(batch);
                }
                None => assert!(server.pending() <= 2),
            }
        }
        assert_eq!(server.pending(), 1);
        flushed.extend(server.flush().unwrap());
        assert_eq!(flushed.len(), 7);
        let m = server.metrics().snapshot();
        assert_eq!(m.counters["serve.requests"], 7);
        assert_eq!(m.counters["serve.responses"], 7);
        assert_eq!(m.counters["serve.batches"], 3);
        assert!(server.cache_stats().requests() > 0);
    }

    #[test]
    fn every_response_books_one_eval_per_shapelet() {
        // A third, z-normalized model whose shapelets have three lengths,
        // one longer than every window of the stream.
        let shapelets = vec![
            Shapelet::new(vec![5.0, 6.0, 5.0], 0),
            Shapelet::new(vec![0.0, 1.0, 3.0, 1.0, 0.0], 1),
            Shapelet::new((0..20).map(|i| (i % 5) as f64).collect(), 1),
        ];
        let features = vec![vec![0.1, 9.0, 1.0], vec![9.0, 0.2, 1.0]];
        let svm = LinearSvm::fit(&features, &[0, 1], SvmParams::default());
        let wide = ServableModel::new("wide", ShapeletTransform::new(shapelets, true), svm);
        let mut registry = two_model_registry();
        registry.insert(wide.unwrap()).unwrap();
        let mut requests = stream(30);
        for (i, request) in requests.iter_mut().enumerate().step_by(4) {
            request.model = "wide".into();
            request.window.truncate(2 + i % 14);
        }
        let config = ServeConfig {
            num_threads: 2,
            max_batch: 8,
            chunk_size: ChunkSize::Fixed(3),
        };
        let mut server = IpsServer::new(registry, config).unwrap();
        let mut responses = Vec::new();
        for request in &requests {
            responses.extend(server.submit(request.clone()).unwrap().unwrap_or_default());
        }
        responses.extend(server.flush().unwrap());
        assert_eq!(responses.len(), requests.len());
        let dims: usize = responses
            .iter()
            .map(|r| server.registry().get(&r.model).unwrap().transform().dim())
            .sum();
        assert_eq!(server.cache_stats().kernel_evals, dims);
        assert_eq!(server.cache_stats().cache_hits, 0);
        // Each batch response is still the single-request reference.
        for (request, response) in requests.iter().zip(&responses) {
            assert_eq!(&server.classify_now(request).unwrap(), response);
        }
    }

    #[test]
    fn invalid_requests_are_rejected_with_typed_errors() {
        let mut server = IpsServer::new(two_model_registry(), ServeConfig::default()).unwrap();
        let unknown = ClassifyRequest {
            id: 1,
            model: "sideways".into(),
            window: vec![1.0; 8],
        };
        assert!(matches!(
            server.submit(unknown.clone()).unwrap_err(),
            IpsError::UnknownModel(name) if name == "sideways"
        ));
        assert!(matches!(
            server.classify_now(&unknown).unwrap_err(),
            IpsError::UnknownModel(_)
        ));
        let empty = ClassifyRequest {
            id: 2,
            model: "up".into(),
            window: vec![],
        };
        assert!(matches!(
            server.submit(empty).unwrap_err(),
            IpsError::InvalidData(_)
        ));
        let nan = ClassifyRequest {
            id: 3,
            model: "up".into(),
            window: vec![1.0, f64::NAN],
        };
        let err = server.submit(nan).unwrap_err();
        assert!(err.to_string().contains("position 1"), "{err}");
        // Nothing slipped into the queue; rejections were counted.
        assert_eq!(server.pending(), 0);
        assert_eq!(server.metrics().snapshot().counters["serve.rejected"], 3);
        assert!(server.flush().unwrap().is_empty());
    }

    #[test]
    fn windows_shorter_than_shapelets_still_score() {
        let server = IpsServer::new(two_model_registry(), ServeConfig::default()).unwrap();
        let short = ClassifyRequest {
            id: 9,
            model: "up".into(),
            window: vec![5.0, 6.0], // shorter than every shapelet
        };
        let response = server.classify_now(&short).unwrap();
        assert_eq!(response.id, 9);
    }

    #[test]
    fn zero_max_batch_is_an_invalid_config() {
        let err = IpsServer::new(
            ModelRegistry::new(),
            ServeConfig {
                max_batch: 0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            IpsError::InvalidConfig {
                field: "max_batch",
                ..
            }
        ));
    }
}
