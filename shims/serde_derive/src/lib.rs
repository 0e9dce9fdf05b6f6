//! In-tree shim for the `serde_derive` proc-macro crate.
//!
//! The build environment has no crates.io access, and no workspace source
//! derives `Serialize` or `Deserialize`.  These derives expand to nothing;
//! the marker traits live in the sibling `serde` shim and are
//! blanket-implemented.

use proc_macro::TokenStream;

/// No-op `Serialize` derive (accepts and ignores `#[serde(...)]` attributes).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive (accepts and ignores `#[serde(...)]` attributes).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
