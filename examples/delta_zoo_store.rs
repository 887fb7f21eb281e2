//! The delta artifact store end to end: ΔCompress two variants, publish
//! them as content-addressed `.dza` artifacts, stream them back through
//! the tiered disk→host cache, and watch the serving engine charge load
//! waits by each artifact's real compressed bytes (§5.4 hierarchical
//! delta management).
//!
//! ```text
//! cargo run --release --example delta_zoo_store
//! ```

use deltazip::{CostModel, DeltaStoreBinding, DeltaZip, Engine, EngineBuilder};
use dz_compress::pipeline::DeltaCompressConfig;
use dz_gpusim::shapes::ModelShape;
use dz_gpusim::spec::NodeSpec;
use dz_model::tasks::{Corpus, NliTask, SentimentTask};
use dz_model::train::{finetune_fmt, pretrain, TrainConfig};
use dz_model::transformer::{test_config, Params};
use dz_store::{Registry, TieredDeltaStore};
use dz_tensor::Rng;
use dz_workload::{PopularityDist, Trace, TraceSpec};

fn main() {
    // Train a tiny base and two full-model-tuned variants.
    let cfg = test_config();
    let mut rng = Rng::seeded(7);
    let mut base = Params::init(cfg, &mut rng);
    let corpus = Corpus::new(cfg.max_seq);
    pretrain(&mut base, &corpus, TrainConfig::pretrain(40));
    let mut sent = base.clone();
    finetune_fmt(&mut sent, &SentimentTask, TrainConfig::finetune(25));
    let mut nli = base.clone();
    finetune_fmt(&mut nli, &NliTask, TrainConfig::finetune(25));

    let mut dz = DeltaZip::new();
    let b = dz.register_base("tiny-base", base).expect("register base");
    let v4 = dz
        .register_fmt_variant("sentiment-4bit", b, &sent, DeltaCompressConfig::starred(4))
        .expect("register 4-bit variant");
    let v2 = dz
        .register_fmt_variant("nli-2bit", b, &nli, DeltaCompressConfig::starred(2))
        .expect("register 2-bit variant");

    // Publish both into a content-addressed zoo directory.
    let zoo_dir = std::env::temp_dir().join(format!("dz-zoo-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&zoo_dir);
    let registry = Registry::open(&zoo_dir).expect("open registry");
    let id4 = dz.persist_variant(v4, &registry).expect("persist 4-bit");
    let id2 = dz.persist_variant(v2, &registry).expect("persist 2-bit");

    println!("zoo at {}", zoo_dir.display());
    for (name, id) in registry.refs().expect("refs") {
        let size = registry.size_of(&id).expect("size");
        println!("  {name:<16} -> {}.dza  ({size} bytes)", &id.hex()[..12]);
        registry
            .verify(&id)
            .expect("content hash matches file name");
    }

    // Serve a Zipf trace over the two variants, charging loads from real
    // artifact bytes through the tiered disk→host cache.
    let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
    let store = TieredDeltaStore::new(registry, 1 << 30);
    let binding = DeltaStoreBinding::new(store, vec![id4, id2]);
    let trace = Trace::generate(TraceSpec {
        n_models: 2,
        arrival_rate: 1.0,
        duration_s: 60.0,
        popularity: PopularityDist::Zipf { alpha: 1.5 },
        seed: 3,
    });
    let mut engine = EngineBuilder::new(cost).store(binding).build();
    let metrics = engine.run(&trace);

    let total_load: f64 = metrics.records.iter().map(|r| r.load_s).sum();
    println!(
        "\nserved {} requests, mean e2e {:.3}s, total load wait {:.3}ms",
        metrics.len(),
        metrics.mean_e2e(),
        total_load * 1e3
    );
    let binding = engine.delta_store.as_ref().expect("store attached");
    let stats = binding.store().total_stats();
    println!(
        "store: {} disk loads ({} bytes), {} host hits ({} bytes)",
        stats.disk_loads, stats.disk_bytes, stats.host_hits, stats.host_bytes
    );
    for (label, id) in [("sentiment-4bit", id4), ("nli-2bit", id2)] {
        let s = binding.store().stats(&id);
        println!(
            "  {label:<16} disk {}x/{}B  host {}x/{}B",
            s.disk_loads, s.disk_bytes, s.host_hits, s.host_bytes
        );
    }

    let _ = std::fs::remove_dir_all(&zoo_dir);
}
