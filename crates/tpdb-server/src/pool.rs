//! The one sanctioned thread-spawn site of the workspace.
//!
//! `clippy.toml` disallows `std::thread::spawn`, `Builder::spawn` and
//! `std::thread::scope` in every engine library; [`spawn`] below is the one
//! call that carries an `#[expect]` for it. A server's acceptor and
//! connection threads are *long-lived* — they outlive the function that
//! starts the server, which `std::thread::scope` cannot express. (There is
//! no third kind: a statement executes on its connection's thread.) This
//! module keeps such threads accountable by construction instead of by
//! scoping:
//!
//! 1. **Every spawn returns a [`JoinHandle`]** — there is no fire-and-
//!    forget variant — and every caller in this crate stores the handle in
//!    server state: the acceptor's in the [`crate::ServerHandle`], a
//!    connection's in the registry, where the acceptor joins it once the
//!    thread has finished and [`crate::ServerHandle::shutdown`] joins the
//!    rest. A thread born here cannot outlive the server.
//! 2. **Closures own their state.** Callers pass `'static` closures over
//!    `Arc`'d server internals; there are no borrows for a leaked thread
//!    to outlive, so the memory-safety half of the scoped-thread
//!    discipline is preserved too.
//!
//! Keeping the exemption to one function keeps it auditable: one place
//! threads are born, one shutdown path that joins them.

use std::io;
use std::thread::{Builder, JoinHandle};

/// Spawns a named, long-lived server thread. The caller **must** retain
/// the handle and join it at shutdown (see module docs).
#[expect(
    clippy::disallowed_methods,
    reason = "long-lived server threads; every handle is joined by shutdown"
)]
pub(crate) fn spawn<F>(name: &str, f: F) -> io::Result<JoinHandle<()>>
where
    F: FnOnce() + Send + 'static,
{
    Builder::new().name(format!("tpdb-{name}")).spawn(f)
}
