use std::fmt;

/// Errors produced by linear-algebra operations.
///
/// All variants carry enough context to diagnose which operation failed and
/// why; the type implements [`std::error::Error`] and is `Send + Sync` so it
/// composes with downstream error types.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable name of the operation, e.g. `"mul"`.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The matrix is singular (or numerically singular) at the given pivot.
    Singular {
        /// Index of the pivot at which elimination broke down.
        pivot: usize,
        /// Magnitude of the offending pivot element.
        value: f64,
    },
    /// A matrix that must be square was not.
    NotSquare {
        /// Actual shape as `(rows, cols)`.
        shape: (usize, usize),
    },
    /// Construction input was empty or ragged.
    InvalidInput {
        /// Description of what was wrong.
        reason: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::Singular { pivot, value } => {
                write!(
                    f,
                    "singular matrix: pivot {pivot} has magnitude {value:.3e}"
                )
            }
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = LinalgError::ShapeMismatch {
            op: "mul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("mul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));

        let e = LinalgError::Singular {
            pivot: 3,
            value: 1e-30,
        };
        assert!(e.to_string().contains("pivot 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
