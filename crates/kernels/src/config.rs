//! Tuning knobs for the kernels, with a validating builder.
//!
//! Fields are private so an invalid combination can never reach a kernel:
//! the only way to deviate from [`KernelConfig::default`] is through
//! [`KernelConfig::builder`], whose `build` rejects bad values with a typed
//! [`ConfigError`].

use std::fmt;

/// Validated kernel configuration. Construct via [`KernelConfig::default`]
/// or [`KernelConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelConfig {
    damping: f64,
    max_iters: usize,
    tolerance: f64,
}

impl Default for KernelConfig {
    /// Damping `0.85`, up to 100 iterations, L1 tolerance `1e-12`.
    fn default() -> Self {
        KernelConfig {
            damping: 0.85,
            max_iters: 100,
            tolerance: 1e-12,
        }
    }
}

impl KernelConfig {
    pub fn builder() -> KernelConfigBuilder {
        KernelConfigBuilder {
            cfg: KernelConfig::default(),
        }
    }

    /// PageRank damping factor, strictly inside `(0, 1)`.
    pub fn damping(&self) -> f64 {
        self.damping
    }

    /// Iteration cap for the fixpoint kernels (PageRank).
    pub fn max_iters(&self) -> usize {
        self.max_iters
    }

    /// L1 convergence threshold for PageRank (finite, ≥ 0).
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }
}

/// Why a [`KernelConfigBuilder::build`] call was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Damping must satisfy `0 < damping < 1`.
    DampingOutOfRange(f64),
    /// `max_iters` must be at least 1.
    ZeroIterations,
    /// Tolerance must be finite and non-negative.
    BadTolerance(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::DampingOutOfRange(d) => {
                write!(f, "damping must lie strictly in (0, 1), got {d}")
            }
            ConfigError::ZeroIterations => write!(f, "max_iters must be >= 1"),
            ConfigError::BadTolerance(t) => {
                write!(f, "tolerance must be finite and >= 0, got {t}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`KernelConfig`]; every setter is optional, `build` validates.
#[derive(Debug, Clone)]
pub struct KernelConfigBuilder {
    cfg: KernelConfig,
}

impl KernelConfigBuilder {
    pub fn damping(mut self, damping: f64) -> Self {
        self.cfg.damping = damping;
        self
    }

    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.cfg.max_iters = max_iters;
        self
    }

    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.cfg.tolerance = tolerance;
        self
    }

    pub fn build(self) -> Result<KernelConfig, ConfigError> {
        let c = &self.cfg;
        if !(c.damping > 0.0 && c.damping < 1.0) {
            return Err(ConfigError::DampingOutOfRange(c.damping));
        }
        if c.max_iters == 0 {
            return Err(ConfigError::ZeroIterations);
        }
        if !(c.tolerance.is_finite() && c.tolerance >= 0.0) {
            return Err(ConfigError::BadTolerance(c.tolerance));
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_buildable_and_matches_builder_noop() {
        let built = KernelConfig::builder().build().unwrap();
        assert_eq!(built, KernelConfig::default());
        assert_eq!(built.damping(), 0.85);
        assert_eq!(built.max_iters(), 100);
        assert_eq!(built.tolerance(), 1e-12);
    }

    #[test]
    fn builder_rejects_each_invalid_field() {
        assert_eq!(
            KernelConfig::builder().damping(1.0).build(),
            Err(ConfigError::DampingOutOfRange(1.0))
        );
        assert_eq!(
            KernelConfig::builder().damping(0.0).build(),
            Err(ConfigError::DampingOutOfRange(0.0))
        );
        assert_eq!(
            KernelConfig::builder().max_iters(0).build(),
            Err(ConfigError::ZeroIterations)
        );
        assert!(matches!(
            KernelConfig::builder().tolerance(f64::NAN).build(),
            Err(ConfigError::BadTolerance(t)) if t.is_nan()
        ));
        assert_eq!(
            KernelConfig::builder().tolerance(-1.0).build(),
            Err(ConfigError::BadTolerance(-1.0))
        );
    }

    #[test]
    fn builder_accepts_a_full_custom_config() {
        let c = KernelConfig::builder()
            .damping(0.9)
            .max_iters(50)
            .tolerance(1e-9)
            .build()
            .unwrap();
        assert_eq!(c.damping(), 0.9);
        assert_eq!(c.max_iters(), 50);
        assert_eq!(c.tolerance(), 1e-9);
    }
}
