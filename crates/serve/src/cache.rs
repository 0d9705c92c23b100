//! The epoch-swapped schema cache: compile once, serve millions of
//! requests, hot-reload without interrupting any of them.
//!
//! The cache holds one [`SchemaEpoch`] — the compiled arena IR plus a
//! monotonically increasing epoch number — behind an `Arc` that request
//! workers clone at admission. `RELOAD` recompiles from the configured
//! path *off to the side* (no lock held during file I/O or compilation)
//! and swaps the `Arc` in one short critical section; requests that
//! already hold the old epoch finish against it, requests admitted after
//! the swap see the new one, and a failed recompile leaves the serving
//! epoch untouched.

use crate::{ServeError, Shared};
use jsonx_schema::CompiledSchema;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// One compiled-schema generation.
#[derive(Debug)]
pub struct SchemaEpoch {
    /// Generation number: `0` = no schema configured, `1` = the schema
    /// loaded at startup, `+1` per successful reload.
    pub epoch: u64,
    /// The compiled schema; `None` when the daemon runs schema-less.
    pub schema: Option<CompiledSchema>,
}

/// The cache itself. See the module docs for the swap discipline.
pub struct SchemaCache {
    path: Option<PathBuf>,
    current: Mutex<Arc<SchemaEpoch>>,
    /// Serialises reloads so concurrent `RELOAD`s can't interleave their
    /// read-compile-swap sequences (each still observes an up-to-date
    /// epoch number when it swaps).
    reload_gate: Mutex<()>,
}

/// Reads and compiles the schema document at `path`, past one leading
/// byte-order mark (RFC 8259 §8.1).
fn compile_path(path: &PathBuf) -> Result<CompiledSchema, ServeError> {
    let text = std::fs::read_to_string(path).map_err(|e| ServeError::SchemaIo(path.clone(), e))?;
    let doc = jsonx_syntax::parse(text.strip_prefix('\u{feff}').unwrap_or(&text))
        .map_err(|e| ServeError::SchemaInvalid(path.clone(), e.to_string()))?;
    CompiledSchema::compile(&doc)
        .map_err(|e| ServeError::SchemaInvalid(path.clone(), e.to_string()))
}

impl SchemaCache {
    /// Compiles the schema at `path` (when given) into epoch 1; `None`
    /// starts a schema-less cache at epoch 0.
    pub fn load(path: Option<PathBuf>) -> Result<SchemaCache, ServeError> {
        let initial = match &path {
            Some(p) => SchemaEpoch {
                epoch: 1,
                schema: Some(compile_path(p)?),
            },
            None => SchemaEpoch {
                epoch: 0,
                schema: None,
            },
        };
        Ok(SchemaCache {
            path,
            current: Mutex::new(Arc::new(initial)),
            reload_gate: Mutex::new(()),
        })
    }

    /// The serving epoch, cloned cheaply. Callers hold the `Arc` for the
    /// whole request, so a concurrent swap never invalidates it.
    pub fn snapshot(&self) -> Arc<SchemaEpoch> {
        Arc::clone(&self.current.lock().unwrap())
    }

    /// Recompiles from the configured path and atomically swaps the new
    /// epoch in. Returns the new epoch number, or an error message — in
    /// which case the previous epoch keeps serving.
    pub fn reload(&self) -> Result<u64, String> {
        let Some(path) = &self.path else {
            return Err("no schema configured; start with --schema".to_string());
        };
        let _gate = self.reload_gate.lock().unwrap();
        // Compile outside the swap lock: requests keep being admitted
        // against the old epoch while the new one builds.
        let schema = compile_path(path).map_err(|e| e.to_string())?;
        let mut current = self.current.lock().unwrap();
        let epoch = current.epoch + 1;
        *current = Arc::new(SchemaEpoch {
            epoch,
            schema: Some(schema),
        });
        Ok(epoch)
    }
}

/// Counted reload driven by a `RELOAD` frame.
pub(crate) fn handle_reload(shared: &Shared) -> Result<u64, String> {
    let result = shared.cache.reload();
    let mut stats = shared.stats.lock().unwrap();
    match &result {
        Ok(_) => stats.reloads += 1,
        Err(_) => stats.reload_failures += 1,
    }
    result
}
