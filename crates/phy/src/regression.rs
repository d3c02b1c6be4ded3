//! Exponential regression, as applied by the paper to its BER measurements.
//!
//! The paper fits `Pr_bit = c · exp(−s · P_Rx)` to the testbench points of
//! Figure 4 by linear least squares on `ln(Pr_bit)`. [`ExponentialFit`]
//! reproduces exactly that procedure so the chip-level simulator's output
//! can be compared with the paper's eq. (1) constants.

use core::fmt;

/// Errors raised by the regression routines.
#[derive(Debug, Clone, PartialEq)]
pub enum RegressionError {
    /// Fewer than two points, or all x-values identical.
    Degenerate,
    /// A y-value was zero or negative, so its logarithm is undefined.
    NonPositiveSample(f64),
}

impl fmt::Display for RegressionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegressionError::Degenerate => {
                write!(f, "regression needs at least two distinct x-values")
            }
            RegressionError::NonPositiveSample(y) => {
                write!(f, "cannot fit exponential through non-positive sample {y}")
            }
        }
    }
}

impl std::error::Error for RegressionError {}

/// Result of fitting `y = c · exp(b · x)` by least squares on `ln y`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialFit {
    ln_c: f64,
    b: f64,
    r_squared: f64,
}

impl ExponentialFit {
    /// Fits the model to `(x, y)` points.
    ///
    /// # Errors
    ///
    /// Returns [`RegressionError::NonPositiveSample`] if any `y ≤ 0` and
    /// [`RegressionError::Degenerate`] without two distinct x-values.
    pub fn fit(points: &[(f64, f64)]) -> Result<Self, RegressionError> {
        if points.len() < 2 {
            return Err(RegressionError::Degenerate);
        }
        for &(_, y) in points {
            if y <= 0.0 || !y.is_finite() {
                return Err(RegressionError::NonPositiveSample(y));
            }
        }
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1.ln()).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1.ln()).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return Err(RegressionError::Degenerate);
        }
        let b = (n * sxy - sx * sy) / denom;
        let ln_c = (sy - b * sx) / n;

        // Coefficient of determination in log space.
        let mean_ln = sy / n;
        let ss_tot: f64 = points.iter().map(|p| (p.1.ln() - mean_ln).powi(2)).sum();
        let ss_res: f64 = points
            .iter()
            .map(|p| (p.1.ln() - (ln_c + b * p.0)).powi(2))
            .sum();
        let r_squared = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        };

        Ok(ExponentialFit { ln_c, b, r_squared })
    }

    /// The multiplicative constant `c`.
    pub fn coefficient(&self) -> f64 {
        self.ln_c.exp()
    }

    /// The exponent slope `b` (per unit of `x`).
    pub fn slope(&self) -> f64 {
        self.b
    }

    /// Goodness of fit in log space, `R² ∈ [0, 1]` for meaningful fits.
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Evaluates the fitted model at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        (self.ln_c + self.b * x).exp()
    }
}

impl fmt::Display for ExponentialFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "y = {:.3e} · exp({:.4}·x)  (R² = {:.4})",
            self.coefficient(),
            self.b,
            self.r_squared
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_exponential() {
        let points: Vec<(f64, f64)> = (-94..=-85)
            .map(|x| (x as f64, 2.35e-30 * (-0.659 * x as f64).exp()))
            .collect();
        let fit = ExponentialFit::fit(&points).unwrap();
        assert!((fit.slope() + 0.659).abs() < 1e-9, "slope {}", fit.slope());
        assert!(
            (fit.coefficient().log10() - 2.35e-30_f64.log10()).abs() < 1e-6,
            "coefficient {}",
            fit.coefficient()
        );
        assert!(fit.r_squared() > 0.999_999);
        for (log_c, slope) in [(-40.0, 2.0), (-20.0, 0.3), (-5.0, 0.05)] {
            let c = 10f64.powf(log_c);
            let points: Vec<(f64, f64)> = (-94..=-85)
                .map(|x| (x as f64, c * (-slope * x as f64).exp()))
                .collect();
            let fit = ExponentialFit::fit(&points).unwrap();
            let log_fit = fit.coefficient().log10();
            assert!((fit.slope() + slope).abs() < 1e-6, "slope {slope}");
            assert!((log_fit - log_c).abs() < 1e-6, "10^{log_c}");
            assert!(fit.r_squared() > 0.999_99);
        }
    }

    #[test]
    fn eval_interpolates() {
        let points = vec![(0.0, 1.0), (1.0, core::f64::consts::E)];
        let fit = ExponentialFit::fit(&points).unwrap();
        assert!((fit.eval(0.5) - (0.5f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert_eq!(
            ExponentialFit::fit(&[(1.0, 1.0)]),
            Err(RegressionError::Degenerate)
        );
        assert_eq!(
            ExponentialFit::fit(&[(1.0, 1.0), (1.0, 2.0)]),
            Err(RegressionError::Degenerate)
        );
        assert!(matches!(
            ExponentialFit::fit(&[(0.0, 1.0), (1.0, 0.0)]),
            Err(RegressionError::NonPositiveSample(_))
        ));
    }

    #[test]
    fn noisy_fit_has_reasonable_r2() {
        // Multiplicative noise ±20 % around an exponential.
        let noise = [1.1, 0.85, 1.2, 0.9, 1.05, 0.95, 1.15, 0.8, 1.0, 1.1];
        let points: Vec<(f64, f64)> = (-94..=-85)
            .zip(noise)
            .map(|(x, n)| (x as f64, n * 2.35e-30 * (-0.659 * x as f64).exp()))
            .collect();
        let fit = ExponentialFit::fit(&points).unwrap();
        assert!((fit.slope() + 0.659).abs() < 0.05);
        assert!(fit.r_squared() > 0.99);
    }

    #[test]
    fn display_formats() {
        let fit = ExponentialFit::fit(&[(0.0, 1.0), (1.0, 0.1)]).unwrap();
        let s = fit.to_string();
        assert!(s.contains("exp"), "{s}");
        assert!(s.contains("R²"), "{s}");
    }
}
