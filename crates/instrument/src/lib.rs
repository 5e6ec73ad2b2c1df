//! # instrument — binary modification for mixed precision
//!
//! The paper's §2.3–§2.4: a snippet mini-compiler that emits real machine
//! code implementing the in-place downcast-and-flag replacement scheme
//! (Fig. 5/6), a basic-block patcher that splits blocks and rewires CFG
//! edges around victims (Fig. 7), and a whole-program rewriter that turns
//! an original double-precision binary plus a precision configuration into
//! a runnable mixed-precision binary.
//!
//! The paper gives every candidate a snippet once a configuration replaces
//! anything. Two §2.5 data-flow optimizations trim that: lean snippets
//! ([`dataflow`]) drop the flag tests an input's known state makes
//! redundant, and the reach analysis ([`reach`]) leaves bare (no snippet,
//! charged as its snippet's plain path) every double candidate no replaced
//! value can reach.
//!
//! The replacement bit pattern itself (`0x7FF4DEAD`) lives in
//! [`fpvm::value`] and is re-exported here.

#![warn(missing_docs)]

pub mod dataflow;
pub mod reach;
pub mod rewriter;
pub mod snippets;

pub use fpvm::value::{extract, is_replaced, replace, FLAG_HI, FLAG_HI64};
pub use rewriter::{
    block_growth, dynamic_replacement_pct, rewrite, rewrite_all_double, Patch, RewriteMode,
    RewriteOptions, RewriteStats, Rewriter,
};
pub use snippets::{emit_snippet, Emitter, Known, OperandFacts, SnippetPrec};
