//! End-to-end tests of the file-queue sweep service: submit → serve →
//! results, warm re-submission as pure cache replay, and concurrent
//! submitters against one server.

use apps::{AppId, ExperimentScale};
use campaign::report::v1;
use campaign::spec::RunSpec;
use campaign::{serve, FailureSpec, Json, RunCache, ServeOptions, Spool};
use ipr_core::SchedulerKind;
use replication::ExecutionMode;
use std::sync::Arc;
use std::time::Duration;

struct TempTree(std::path::PathBuf);

impl TempTree {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ipr-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempTree(dir)
    }
    fn path(&self, sub: &str) -> std::path::PathBuf {
        self.0.join(sub)
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn drain_options() -> ServeOptions {
    ServeOptions {
        workers: 4,
        drain: true,
        poll: Duration::from_millis(5),
    }
}

fn mini_specs(seeds: &[u64]) -> Vec<RunSpec> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| RunSpec {
            index: i,
            app: AppId::Hpccg,
            scale: ExperimentScale::Tiny,
            mode: ExecutionMode::IntraParallel { degree: 2 },
            scheduler: SchedulerKind::StaticBlock,
            failure: FailureSpec::None,
            seed,
            ckpt: None,
        })
        .collect()
}

#[test]
fn submitted_jobs_are_served_with_streaming_results() {
    let tree = TempTree::new("basic");
    let spool = Spool::open(tree.path("spool")).unwrap();
    let cache = Arc::new(RunCache::open(tree.path("cache")).unwrap());
    let specs = mini_specs(&[43, 44, 45]);
    spool.submit_specs("first", &specs).unwrap();

    let summaries = serve(&spool, &cache, &drain_options()).unwrap();
    assert_eq!(summaries.len(), 1);
    let s = &summaries[0];
    assert_eq!(
        (s.id.as_str(), s.runs, s.executed, s.cache_hits),
        ("first", 3, 3, 0)
    );
    assert_eq!(s.error, None);

    // The final report is a valid v1 envelope in spec order.
    let text = std::fs::read_to_string(spool.result_path("first")).unwrap();
    let doc = Json::parse(&text).unwrap();
    assert_eq!(v1::document_schema(&doc), Some(v1::SCHEMA));
    let report = v1::Report::from_json(&doc).unwrap();
    assert_eq!(report.campaign, "first");
    let ids: Vec<_> = report.runs.iter().map(|r| r.id.clone()).collect();
    let expected: Vec<_> = specs.iter().map(RunSpec::id).collect();
    assert_eq!(ids, expected);

    // The JSONL stream has one parsable line per run, each indexed, none
    // cached on this cold pass.
    let stream = std::fs::read_to_string(spool.stream_path("first")).unwrap();
    let lines: Vec<Json> = stream.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), specs.len());
    let mut indices: Vec<usize> = lines
        .iter()
        .map(|l| l.get("index").and_then(Json::as_f64).unwrap() as usize)
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, vec![0, 1, 2]);
    assert!(lines
        .iter()
        .all(|l| l.get("cached").and_then(Json::as_bool) == Some(false)));

    // Status reflects the finished job.
    let status = spool.status().unwrap();
    assert!(status.queued.is_empty() && status.active.is_empty());
    assert_eq!(status.done.len(), 1);
    assert_eq!(status.done[0], *s);
}

#[test]
fn warm_resubmission_replays_the_cache_byte_identically() {
    let tree = TempTree::new("warm");
    let spool = Spool::open(tree.path("spool")).unwrap();
    let cache = Arc::new(RunCache::open(tree.path("cache")).unwrap());

    spool.submit_grid("cold", "smoke").unwrap();
    let cold = serve(&spool, &cache, &drain_options()).unwrap();
    assert_eq!(cold.len(), 1);
    assert_eq!(cold[0].cache_hits, 0);
    assert!(cold[0].executed > 0);

    spool.submit_grid("warm", "smoke").unwrap();
    let warm = serve(&spool, &cache, &drain_options()).unwrap();
    assert_eq!(warm.len(), 1);
    assert_eq!(
        (warm[0].executed, warm[0].cache_hits),
        (0, cold[0].runs),
        "warm re-sweep must be 100% cache hits"
    );

    // Byte-identical final reports — wall clocks included, because hits
    // replay the stored records verbatim.
    let cold_text = std::fs::read_to_string(spool.result_path("cold")).unwrap();
    let warm_text = std::fs::read_to_string(spool.result_path("warm")).unwrap();
    assert_eq!(cold_text, warm_text);

    // Every streamed line of the warm pass is marked cached.
    let stream = std::fs::read_to_string(spool.stream_path("warm")).unwrap();
    assert!(stream.lines().all(|l| Json::parse(l)
        .unwrap()
        .get("cached")
        .and_then(Json::as_bool)
        == Some(true)));
}

#[test]
fn concurrent_submitters_get_stable_aggregate_output() {
    let tree = TempTree::new("concurrent");
    let spool = Arc::new(Spool::open(tree.path("spool")).unwrap());
    let cache = Arc::new(RunCache::open(tree.path("cache")).unwrap());

    // A resident server in the background...
    let server = {
        let spool = Arc::clone(&spool);
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            serve(
                &spool,
                &cache,
                &ServeOptions {
                    workers: 4,
                    drain: false,
                    poll: Duration::from_millis(5),
                },
            )
            .unwrap()
        })
    };

    // ...while N clients submit concurrently: four distinct jobs, every
    // one carrying the *same* spec list.
    let specs = mini_specs(&[50, 51]);
    std::thread::scope(|scope| {
        for client in 0..4 {
            let spool = Arc::clone(&spool);
            let specs = specs.clone();
            scope.spawn(move || {
                spool
                    .submit_specs(&format!("client{client}"), &specs)
                    .unwrap();
            });
        }
    });

    // Wait for all four to finish, then stop the server.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let status = spool.status().unwrap();
        if status.done.len() == 4 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server did not finish 4 jobs in time: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    spool.request_stop().unwrap();
    let summaries = server.join().unwrap();
    assert_eq!(summaries.len(), 4);

    // Aggregate accounting: every job produced every run, and each run
    // executed either fresh or from cache — never neither.
    for s in &summaries {
        assert_eq!(s.error, None);
        assert_eq!(s.runs, specs.len());
        assert_eq!(s.executed + s.cache_hits, s.runs);
    }
    // The simulation executed each distinct spec at least once overall.
    let executed_total: usize = summaries.iter().map(|s| s.executed).sum();
    assert!(executed_total >= specs.len());

    // Stable aggregate output: all four reports agree byte-for-byte on the
    // deterministic payload (wall clocks may differ between jobs that
    // raced to execute the same spec, so compare stripped).
    let stripped = |id: &str| {
        let text = std::fs::read_to_string(spool.result_path(id)).unwrap();
        let mut doc = Json::parse(&text).unwrap();
        campaign::strip_informational(&mut doc);
        // The campaign name is the job id by design; normalize it away.
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "campaign");
        }
        doc.render()
    };
    let first = stripped("client0");
    for client in 1..4 {
        assert_eq!(
            first,
            stripped(&format!("client{client}")),
            "client{client}"
        );
    }
}

#[test]
fn bad_jobs_fail_with_a_recorded_error() {
    let tree = TempTree::new("bad");
    let spool = Spool::open(tree.path("spool")).unwrap();
    let cache = Arc::new(RunCache::open(tree.path("cache")).unwrap());
    spool.submit_grid("oops", "no-such-grid").unwrap();
    // Labels that parse but are not an experiment (replication degree 1).
    let mut poison = mini_specs(&[43]);
    poison[0].mode = ExecutionMode::Replicated { degree: 1 };
    spool.submit_specs("poison", &poison).unwrap();
    let mut summaries = serve(&spool, &cache, &drain_options()).unwrap();
    summaries.sort_by(|a, b| a.id.cmp(&b.id));
    assert_eq!(summaries.len(), 2);
    let error = summaries[0].error.as_deref().unwrap();
    assert!(error.contains("no-such-grid"), "{error}");
    let error = summaries[1].error.as_deref().unwrap();
    assert!(error.contains("replicated1"), "{error}");
    // The failures are durable: visible in a fresh status scan, and
    // nothing is left in `active/` to be re-queued at the next start.
    let status = spool.status().unwrap();
    assert_eq!(status.done.len(), 2);
    assert!(status.done.iter().all(|s| s.error.is_some()));
    assert_eq!(status.active, Vec::<String>::new());
    // The server still serves a good job afterwards.
    spool.submit_specs("good", &mini_specs(&[43])).unwrap();
    let summaries = serve(&spool, &cache, &drain_options()).unwrap();
    assert_eq!(summaries.len(), 1);
    assert_eq!((summaries[0].executed, &summaries[0].error), (1, &None));
    // A job whose runs cannot be stored fails on record too.
    std::fs::remove_dir_all(tree.path("cache")).unwrap();
    spool.submit_specs("uncached", &mini_specs(&[44])).unwrap();
    let summaries = serve(&spool, &cache, &drain_options()).unwrap();
    let error = summaries[0].error.as_deref().unwrap();
    assert!(error.contains("run cache write"), "{error}");
    // Duplicate ids are rejected at submission time.
    let err = spool.submit_grid("oops", "smoke").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    // So is a seed the job file's number form would round.
    let err = spool
        .submit_specs("wide", &mini_specs(&[(1 << 53) + 2]))
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(spool.status().unwrap().queued, Vec::<String>::new());
}

#[test]
fn a_job_nested_too_deep_fails_on_record_and_the_next_job_runs() {
    let tree = TempTree::new("deep");
    let spool = Spool::open(tree.path("spool")).unwrap();
    let cache = Arc::new(RunCache::open(tree.path("cache")).unwrap());
    // Written straight into the queue, as any writer of the spool can.
    let depth = 20_000;
    let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    std::fs::write(tree.path("spool/jobs/deep.json"), deep).unwrap();
    spool.submit_specs("good", &mini_specs(&[45])).unwrap();
    let mut summaries = serve(&spool, &cache, &drain_options()).unwrap();
    summaries.sort_by(|a, b| a.id.cmp(&b.id));
    assert_eq!(summaries.len(), 2);
    let error = summaries[0].error.as_deref().unwrap();
    assert!(
        error.contains("unparsable") && error.contains("nesting"),
        "{error}"
    );
    assert_eq!(
        (
            summaries[1].id.as_str(),
            summaries[1].executed,
            &summaries[1].error
        ),
        ("good", 1, &None)
    );
    // Nothing is left in `active/` for the next start to re-queue.
    let status = spool.status().unwrap();
    assert_eq!(status.done.len(), 2);
    assert_eq!(status.active, Vec::<String>::new());
}
