//! Criterion benchmarks of the full-system simulator itself: accesses
//! simulated per second under each scheme. Keeps the experiment binaries'
//! runtime in check as the model grows.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tmcc::{SchemeKind, System, SystemConfig};
use tmcc_workloads::WorkloadProfile;

fn small_cfg(scheme: SchemeKind) -> SystemConfig {
    let mut w = WorkloadProfile::by_name("canneal").expect("known workload");
    w.sim_pages = 4096;
    let mut cfg = SystemConfig::new(w, scheme);
    cfg.warmup_accesses = 2_000;
    cfg
}

fn bench_schemes(c: &mut Criterion) {
    let mut g = c.benchmark_group("system-steps");
    g.sample_size(10);
    g.throughput(Throughput::Elements(20_000));
    for scheme in [SchemeKind::NoCompression, SchemeKind::Compresso, SchemeKind::Tmcc] {
        g.bench_function(scheme.name(), |b| {
            b.iter_with_setup(
                || System::try_new(small_cfg(scheme)).expect("unbudgeted config"),
                |mut sys| sys.try_run(20_000).expect("run completes"),
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
