use std::fmt;

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Short name of the operation that failed.
        op: &'static str,
        /// Human-readable description of the offending shapes.
        detail: String,
    },
    /// An iterative algorithm failed to converge within its iteration cap.
    NoConvergence {
        /// Short name of the algorithm.
        op: &'static str,
        /// Iteration cap that was exhausted.
        iterations: usize,
    },
    /// The matrix is singular (or numerically singular) where a
    /// factorization or solve requires otherwise.
    Singular {
        /// Short name of the operation.
        op: &'static str,
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Short name of the operation.
        op: &'static str,
        /// Observed (rows, cols).
        rows: usize,
        /// Observed (rows, cols).
        cols: usize,
    },
    /// An input lies outside the operation's domain (for example a
    /// non-finite or non-positive rate scale).
    Domain {
        /// Short name of the operation.
        op: &'static str,
        /// Human-readable description of the offending input.
        detail: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, detail } => {
                write!(f, "{op}: shape mismatch ({detail})")
            }
            LinalgError::NoConvergence { op, iterations } => {
                write!(f, "{op}: no convergence after {iterations} iterations")
            }
            LinalgError::Singular { op } => write!(f, "{op}: singular matrix"),
            LinalgError::NotSquare { op, rows, cols } => {
                write!(f, "{op}: expected square matrix, got {rows}x{cols}")
            }
            LinalgError::Domain { op, detail } => write!(f, "{op}: {detail}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = LinalgError::ShapeMismatch {
            op: "gemm",
            detail: "2x3 * 4x5".into(),
        };
        assert!(e.to_string().contains("gemm"));
        let e = LinalgError::NoConvergence {
            op: "tql2",
            iterations: 30,
        };
        assert!(e.to_string().contains("30"));
        let e = LinalgError::Singular { op: "lu" };
        assert!(e.to_string().contains("singular"));
        let e = LinalgError::NotSquare {
            op: "eigen",
            rows: 2,
            cols: 3,
        };
        assert!(e.to_string().contains("2x3"));
        let e = LinalgError::Domain {
            op: "scale",
            detail: "NaN".into(),
        };
        assert!(e.to_string().contains("NaN"));
    }
}
