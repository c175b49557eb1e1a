//! Error type for the core crate.

use std::fmt;

/// Errors raised by compilers and decision procedures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// A compiler was invoked on a language outside its class (e.g. the
    /// Lemma 3.5 compiler on a language that is not almost-reversible).
    ClassMismatch {
        /// The class the compiler requires.
        required: &'static str,
        /// A pair of states witnessing the violation, in the minimal
        /// automaton's numbering.
        witness: Option<(usize, usize)>,
    },
    /// A depth-register automaton exceeded the 64-register limit of the
    /// runner.
    TooManyRegisters {
        /// The requested register count.
        requested: usize,
    },
    /// A table-DRA description was malformed.
    MalformedTable {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// The registerless engine's composite state (tag lexer × query DFA)
    /// would exceed the `u16` its checkpoints freeze it in.
    FusedTooLarge {
        /// The composite state count that was requested.
        states: usize,
    },
    /// A DTD was malformed (e.g. a production references an unknown
    /// symbol).
    MalformedDtd {
        /// Human-readable description of the defect.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ClassMismatch { required, witness } => {
                write!(f, "language is not {required}")?;
                if let Some((p, q)) = witness {
                    write!(f, " (witness states {p}, {q})")?;
                }
                Ok(())
            }
            CoreError::TooManyRegisters { requested } => {
                write!(
                    f,
                    "{requested} registers requested; the runner supports at most 64"
                )
            }
            CoreError::MalformedTable { detail } => write!(f, "malformed table DRA: {detail}"),
            CoreError::FusedTooLarge { states } => {
                write!(
                    f,
                    "fused byte engine needs {states} composite states; the checkpoint field caps at 65536"
                )
            }
            CoreError::MalformedDtd { detail } => write!(f, "malformed DTD: {detail}"),
        }
    }
}

impl std::error::Error for CoreError {}
