//! Checks of the measuring harness itself: the tail rule, the fast
//! quantile, due-time latency under a stalled flush, and digest agreement
//! between the loops.

use std::time::{Duration, Instant};

use ips_classify::svm::SvmParams;
use ips_classify::{LinearSvm, Shapelet, ShapeletTransform};
use ips_core::IpsError;
use ips_perfbench::loadgen::{closed_loop, open_loop, Backend, Stream};
use ips_perfbench::stats::{median, quantile, tail, FAST_QUANTILE, TAIL_BEYOND};
use ips_serve::{
    ClassifyRequest, ClassifyResponse, IpsServer, ModelRegistry, ServableModel, ServeConfig,
};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let t = tail(&xs).expect("100 samples have a tail");
    assert_eq!(t.value, 90.0);
    assert_eq!(t.percentile, 90.0);
    assert_eq!(t.beyond, TAIL_BEYOND);
    assert_eq!(t.samples, 100);
    assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&xs).unwrap().value, 990.0);

    // Eleven samples: only the smallest has ten beyond it.
    let xs: Vec<f64> = (1..=11).map(f64::from).collect();
    let t = tail(&xs).unwrap();
    assert_eq!(t.value, 1.0);
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

    // Ten samples cannot leave ten beyond any of them.
    assert!(tail(&[1.0; 10]).is_none());
    assert!(tail(&[]).is_none());
}

#[test]
fn the_fast_quantile_reads_the_unslowed_stretches() {
    // A run whose host slowed 70% of its fits by 1.7×: the median reads
    // the slowed speed, the fast quantile the program's own.
    let xs: Vec<f64> = (0..100)
        .map(|i| if i % 10 < 3 { 0.10 } else { 0.17 })
        .collect();
    assert_eq!(median(&xs), 0.17);
    assert_eq!(quantile(&xs, FAST_QUANTILE), 0.10);
}

/// A backend that answers every request with label 1, and whose first
/// non-empty flush stalls for `stall`.
struct Stalling {
    queue: Vec<ClassifyRequest>,
    stall: Duration,
    stalled: bool,
}

impl Backend for Stalling {
    fn submit(
        &mut self,
        request: ClassifyRequest,
    ) -> Result<Option<Vec<ClassifyResponse>>, IpsError> {
        self.queue.push(request);
        Ok(None)
    }

    fn flush(&mut self) -> Result<Vec<ClassifyResponse>, IpsError> {
        if !self.queue.is_empty() && !self.stalled {
            self.stalled = true;
            std::thread::sleep(self.stall);
        }
        Ok(self
            .queue
            .drain(..)
            .map(|r| ClassifyResponse {
                id: r.id,
                model: r.model,
                label: 1,
            })
            .collect())
    }
}

fn one_model_stream(len: usize) -> Stream {
    let requests = (0..len)
        .map(|i| ClassifyRequest {
            id: i as u64,
            model: "m".into(),
            window: vec![i as f64; 4],
        })
        .collect();
    Stream {
        requests,
        expected: vec![1; len],
    }
}

#[test]
fn open_loop_latency_counts_from_the_due_time_through_a_stall() {
    let stream = one_model_stream(16);
    let stall = Duration::from_millis(60);
    let mut backend = Stalling {
        queue: Vec::new(),
        stall,
        stalled: false,
    };
    let rate = 1000.0;
    let out = open_loop(&mut backend, &stream, rate, Duration::from_millis(250));
    assert_eq!(out.failed, 0);
    assert!(out.attempted >= 200, "sent {}", out.attempted);

    // The first flush stalls: every request that fell due while it ran
    // was sent only afterwards, yet its latency runs from its due time.
    let first = &out.timelines[0];
    let stall_end = first.done;
    assert!(stall_end - first.flush >= stall.as_secs_f64() * 0.95);
    let during: Vec<_> = out
        .timelines
        .iter()
        .filter(|t| t.due > first.flush && t.due < stall_end)
        .collect();
    assert!(
        during.len() >= 40,
        "{} requests fell due in the stall",
        during.len()
    );
    for t in &during {
        assert!(t.sent >= stall_end, "sent before the stall ended");
        let from_due = t.latency_ms();
        let from_send = (t.done - t.sent) * 1e3;
        assert!(from_due >= (stall_end - t.due) * 1e3 - 1e-9);
        assert!(from_due > from_send, "latency must not start at send time");
    }
    // The request due first waited the whole stall.
    assert!(first.latency_ms() >= stall.as_secs_f64() * 1e3 * 0.95);
}

fn toy_model(name: &str, flip: f64) -> ServableModel {
    let shapelets = vec![
        Shapelet::new(vec![flip * 5.0, flip * 6.0, flip * 5.0], 0),
        Shapelet::new(vec![flip * -5.0, flip * -6.0, flip * -5.0], 1),
    ];
    let features = vec![
        vec![0.1, 9.0],
        vec![0.3, 8.0],
        vec![9.0, 0.2],
        vec![8.0, 0.4],
    ];
    let svm = LinearSvm::fit(&features, &[0, 0, 1, 1], SvmParams::default());
    ServableModel::new(name, ShapeletTransform::new(shapelets, false), svm).unwrap()
}

fn toy_server() -> IpsServer {
    let mut registry = ModelRegistry::new();
    registry.insert(toy_model("up", 1.0)).unwrap();
    registry.insert(toy_model("down", -1.0)).unwrap();
    let config = ServeConfig {
        num_threads: 2,
        max_batch: 8,
        ..ServeConfig::default()
    };
    IpsServer::new(registry, config).unwrap()
}

#[test]
fn closed_and_open_loops_produce_the_reference_digest() {
    let requests: Vec<ClassifyRequest> = (0..40)
        .map(|i| {
            let mut window = vec![0.25 * (i % 7) as f64; 16];
            let sign = if i % 3 == 0 { 1.0 } else { -1.0 };
            for (j, v) in [5.0, 6.0, 5.0].iter().enumerate() {
                window[i % 12 + j] = sign * v;
            }
            ClassifyRequest {
                id: 0,
                model: if i % 2 == 0 { "up" } else { "down" }.into(),
                window,
            }
        })
        .collect();
    let mut server = toy_server();
    let stream = Stream::reference(&server, requests).unwrap();
    assert!(stream.expected.contains(&0) && stream.expected.contains(&1));

    let closed = closed_loop(&mut server, &stream, 8, Instant::now(), 2);
    assert_eq!(closed.failed, 0);
    assert_eq!(closed.attempted, 2 * stream.len());
    assert_eq!(closed.digest, Some(stream.digest()));
    // Each batch of 8 fills admission and is answered whole; every
    // request falls due when its batch starts.
    assert_eq!(closed.batches, 2 * stream.len() / 8);
    assert_eq!(closed.backlog_end, 0);
    assert!(closed
        .timelines
        .iter()
        .all(|t| t.due <= t.sent && t.sent <= t.flush && t.flush <= t.done));

    let open = open_loop(&mut server, &stream, 2000.0, Duration::from_millis(100));
    assert_eq!(open.failed, 0);
    assert!(open.attempted > stream.len());
    assert_eq!(open.digest, closed.digest);

    // A response that disagrees with the reference fails, and the digest
    // no longer matches.
    let mut wrong = stream.clone();
    wrong.expected[3] ^= 1;
    let closed = closed_loop(&mut server, &wrong, 8, Instant::now(), 1);
    assert_eq!(closed.failed, 1);
    assert_ne!(closed.digest, Some(wrong.digest()));
}
