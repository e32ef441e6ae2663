//! Component microbenchmarks: the per-packet primitives whose costs the
//! simulation charges, measured for real.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcs_bench::{collect_chunks, sample_packet, ReplayChunks};
use pcs_bpf::{compile, opt, programs, vm};
use pcs_des::Pcg32;
use pcs_pktgen::{
    ChunkedGenerator, DistConfig, Generator, PktgenConfig, SizeSource, TwoStageDist, TxModel,
    DEFAULT_CHUNK_PACKETS,
};
use pcs_zdeflate::{crc32, deflate, gunzip, GzWriter};
use std::hint::black_box;

fn bench_bpf(c: &mut Criterion) {
    let mut g = c.benchmark_group("bpf");
    let prog = programs::fig65_program(65_535).expect("fig 6.5 compiles");
    let pkt = sample_packet(1, 750);
    g.throughput(Throughput::Elements(1));
    g.bench_function("vm_fig65_filter", |b| {
        b.iter(|| vm::run(black_box(&prog), black_box(&pkt)).unwrap())
    });
    let accept = programs::accept_all(96);
    g.bench_function("vm_accept_all", |b| {
        b.iter(|| vm::run(black_box(&accept), black_box(&pkt)).unwrap())
    });
    let expr = programs::fig65_expression();
    g.bench_function("compile_fig65", |b| {
        b.iter(|| compile(black_box(&expr), 65_535).unwrap())
    });
    let unoptimized = {
        // Compile without the optimizer by building the naive program.
        let ast = pcs_bpf::compiler::parser::parse(&expr).unwrap().unwrap();
        pcs_bpf::compiler::gen::generate(Some(&ast), 65_535).unwrap()
    };
    g.bench_function("optimize_fig65", |b| {
        b.iter(|| opt::optimize(black_box(&unoptimized)))
    });
    g.finish();
}

fn bench_pktgen(c: &mut Criterion) {
    let mut g = c.benchmark_group("pktgen");
    let counts = pcs_pktgen::mwn_counts(1_000_000);
    let dist =
        TwoStageDist::from_counts(counts.iter().map(|(&s, &c)| (s, c)), &DistConfig::default())
            .unwrap();
    let mut rng = Pcg32::new(42, 1);
    g.throughput(Throughput::Elements(1));
    g.bench_function("dist_sample", |b| b.iter(|| dist.sample(&mut rng)));
    g.bench_function("build_mwn_dist", |b| {
        b.iter(|| {
            TwoStageDist::from_counts(counts.iter().map(|(&s, &c)| (s, c)), &DistConfig::default())
                .unwrap()
        })
    });
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("generate_1k_packets", |b| {
        b.iter(|| {
            let cfg = PktgenConfig {
                count: 1_000,
                size: SizeSource::Distribution(dist.clone()),
                ..PktgenConfig::default()
            };
            let gen = Generator::new(cfg, TxModel::syskonnect(), 7);
            gen.count()
        })
    });
    g.finish();
}

fn bench_zdeflate(c: &mut Criterion) {
    let mut g = c.benchmark_group("zdeflate");
    // A packet-like buffer: headers + semi-repetitive payload.
    let data: Vec<u8> = (0..1500u32).map(|i| ((i / 7) % 251) as u8).collect();
    g.throughput(Throughput::Bytes(data.len() as u64));
    for level in [1u8, 3, 6, 9] {
        g.bench_with_input(BenchmarkId::new("deflate_1500B", level), &level, |b, &l| {
            b.iter(|| deflate(black_box(&data), l))
        });
    }
    g.bench_function("crc32_1500B", |b| b.iter(|| crc32::crc32(black_box(&data))));
    let gz = {
        let mut w = GzWriter::new(6);
        w.write(&data.repeat(16));
        w.finish()
    };
    g.throughput(Throughput::Bytes((data.len() * 16) as u64));
    g.bench_function("gunzip_24kB", |b| {
        b.iter(|| gunzip(black_box(&gz)).unwrap())
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Elements(1));
    g.bench_function("build_udp_packet", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            sample_packet(seq, 750)
        })
    });
    let pkt = sample_packet(3, 1514);
    g.bench_function("parse_ipv4_header", |b| b.iter(|| pkt.ipv4().unwrap()));
    g.finish();
}

fn bench_machine_sim(c: &mut Criterion) {
    use pcs_hw::MachineSpec;
    use pcs_oskernel::{MachineSim, SimConfig};
    let mut g = c.benchmark_group("machine_sim");
    let counts = pcs_pktgen::mwn_counts(1_000_000);
    let dist =
        TwoStageDist::from_counts(counts.iter().map(|(&s, &c)| (s, c)), &DistConfig::default())
            .unwrap();
    let mean = pcs_pktgen::mwn_mean(&counts) + 14.0;
    let make_stream = |count: u64| {
        let cfg = PktgenConfig {
            count,
            size: SizeSource::Distribution(dist.clone()),
            ..PktgenConfig::default()
        };
        let mut gen = Generator::new(cfg, TxModel::syskonnect(), 11);
        gen.set_target_rate(500.0, mean);
        gen.set_burstiness(64);
        collect_chunks(ChunkedGenerator::new(gen, DEFAULT_CHUNK_PACKETS))
    };
    let chunks = make_stream(10_000);
    g.throughput(Throughput::Elements(10_000));
    for spec in [MachineSpec::moorhen(), MachineSpec::swan()] {
        g.bench_with_input(
            BenchmarkId::new("run_10k_at_500mbit", spec.name),
            &spec,
            |b, spec| {
                b.iter(|| {
                    MachineSim::new(*spec, SimConfig::default())
                        .run_source(ReplayChunks::new(&chunks))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_bpf, bench_pktgen, bench_zdeflate, bench_wire, bench_machine_sim
);
criterion_main!(benches);
