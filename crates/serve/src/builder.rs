//! The one construction surface for [`DeltaZipEngine`].
//!
//! [`EngineBuilder`] is the only way to attach anything to an engine:
//! declare the cost model, the scheduler knobs, the variant catalog, and
//! the optional store/tracing/prefetch/policy attachments in one place,
//! then [`build`](EngineBuilder::build) the unified toppings engine.
//! [`DeltaZipEngine::new`] is the bare engine the builder starts from.
//! The adapter-only baseline is the same engine over
//! [`VariantCatalog::all_lora`].

use crate::cost::CostModel;
use crate::deltazip::{DeltaStoreBinding, DeltaZipConfig, DeltaZipEngine};
use crate::predictor::LengthEstimator;
use crate::slo::SloPolicy;
use crate::swap::{Brownout, Prefetcher};
use crate::tuning::DynamicN;
use crate::variant::VariantCatalog;
use dz_trace::{TraceConfig, Tracer};

/// Builder for a [`DeltaZipEngine`] over one [`CostModel`].
///
/// ```
/// use dz_gpusim::shapes::ModelShape;
/// use dz_gpusim::spec::NodeSpec;
/// use dz_serve::{CostModel, DeltaZipConfig, EngineBuilder, VariantCatalog};
///
/// let cost = CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b());
/// let engine = EngineBuilder::new(cost)
///     .scheduler(DeltaZipConfig {
///         max_toppings_per_batch: Some(4),
///         ..DeltaZipConfig::default()
///     })
///     .catalog(VariantCatalog::interleaved(6, 16))
///     .build();
/// assert!(engine.catalog.is_some());
/// ```
pub struct EngineBuilder {
    engine: DeltaZipEngine,
}

impl EngineBuilder {
    /// Starts a builder with the default scheduler and no attachments.
    pub fn new(cost: CostModel) -> Self {
        EngineBuilder {
            engine: DeltaZipEngine::new(cost, DeltaZipConfig::default()),
        }
    }

    /// Sets the DeltaZip scheduler configuration (batch caps, strategy,
    /// preemption/resume policies, swap overlap, toppings caps),
    /// [validated](DeltaZipConfig::validated) as by [`DeltaZipEngine::new`].
    pub fn scheduler(mut self, config: DeltaZipConfig) -> Self {
        self.engine.config = config.validated();
        self
    }

    /// Installs the variant catalog (index = trace model id).
    pub fn catalog(mut self, catalog: VariantCatalog) -> Self {
        self.engine.catalog = Some(catalog);
        self
    }

    /// Attaches an artifact store binding: delta loads are charged by the
    /// bound artifacts' real compressed byte sizes.
    pub fn store(mut self, binding: DeltaStoreBinding) -> Self {
        self.engine.delta_store = Some(binding);
        self
    }

    /// Enables structured simulation-clock tracing.
    pub fn tracing(mut self, config: TraceConfig) -> Self {
        self.engine.tracer = Tracer::enabled(config);
        self
    }

    /// Enables predictive disk→host delta prefetch under the default
    /// bandwidth budget (tune it via the engine's `prefetch_config`).
    pub fn prefetcher(mut self, prefetcher: Box<dyn Prefetcher>) -> Self {
        self.engine.prefetcher = Some(prefetcher);
        self
    }

    /// Enables SLO-priority queue scanning.
    pub fn slo(mut self, policy: SloPolicy) -> Self {
        self.engine.slo_policy = Some(policy);
        self
    }

    /// Replaces the output-length estimator.
    pub fn estimator(mut self, estimator: LengthEstimator) -> Self {
        self.engine.estimator = estimator;
        self
    }

    /// Enables online `N` tuning.
    pub fn dynamic_n(mut self, controller: DynamicN) -> Self {
        self.engine.dynamic_n = Some(controller);
        self
    }

    /// Installs a degraded-channel fault schedule.
    pub fn brownouts(mut self, schedule: Vec<Brownout>) -> Self {
        self.engine.brownouts = schedule;
        self
    }

    /// Builds the unified toppings engine: one [`DeltaZipEngine`] serving
    /// base, LoRA, delta, and stacked variants per the catalog (no catalog
    /// means every model is a delta — the legacy behavior).
    pub fn build(self) -> DeltaZipEngine {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dz_gpusim::shapes::ModelShape;
    use dz_gpusim::spec::NodeSpec;

    fn cost() -> CostModel {
        CostModel::new(NodeSpec::a800_node(4), ModelShape::llama13b())
    }

    #[test]
    fn build_defaults_match_legacy_constructor() {
        let built = EngineBuilder::new(cost()).build();
        let legacy = DeltaZipEngine::new(cost(), DeltaZipConfig::default());
        assert_eq!(built.config.max_batch, legacy.config.max_batch);
        assert!(built.catalog.is_none());
        assert!(built.delta_store.is_none());
    }

    #[test]
    fn toppings_cap_lands_in_scheduler_config() {
        let e = EngineBuilder::new(cost())
            .scheduler(DeltaZipConfig {
                max_toppings_per_batch: Some(3),
                segregate_kinds: true,
                ..DeltaZipConfig::default()
            })
            .build();
        assert_eq!(e.config.max_toppings_per_batch, Some(3));
        assert!(e.config.segregate_kinds);
    }
}
