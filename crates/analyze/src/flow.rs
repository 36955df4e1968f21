//! What the interprocedural rules share: the per-function summary
//! solver and the branch/merge skeleton of a path-sensitive walk. Neither
//! knows which rule it serves — a rule brings its summary type, its
//! per-path state and the join over that state.

use crate::callgraph::CallGraph;

/// Per-function summaries to fixpoint over the call graph. `step`
/// recomputes one node's summary from the *previous* round's vector —
/// never the round in progress, so a summary (and the "first site" text
/// rules quote from it) does not depend on node order. Summaries are
/// monotone in practice; the ten-round cap is a backstop.
pub fn summaries<S: Default + PartialEq>(
    cg: &CallGraph<'_>,
    mut step: impl FnMut(usize, &[S]) -> S,
) -> Vec<S> {
    let mut sums: Vec<S> = cg.nodes.iter().map(|_| S::default()).collect();
    for _ in 0..10 {
        let next: Vec<S> = (0..sums.len()).map(|node| step(node, &sums)).collect();
        if next == sums {
            break;
        }
        sums = next;
    }
    sums
}

/// True for the panic-family macros, which end the path they are on.
pub fn macro_diverges(name: &str) -> bool {
    matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
}

/// The end of one branch: the per-path state, and whether the path left
/// the function (`return`, panic-family macro) before reaching the join.
pub type BranchEnd<S> = (S, bool);

/// Branch/merge over a walker's per-path state. A branch that leaves the
/// function does not vote at the join; if every branch leaves, so does
/// the path.
pub trait Paths: Sized {
    /// What holds on the current path.
    type State: Clone;

    /// The walker's per-path state and its "this path has left the
    /// function" flag.
    fn path(&mut self) -> (&mut Self::State, &mut bool);

    /// Folds a second live branch end into `into`.
    fn join(&self, into: &mut Self::State, other: &Self::State);

    /// Runs `f` as a branch from the current state; returns its value and
    /// end state, and restores the walker.
    fn branch<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, BranchEnd<Self::State>) {
        let (state, diverged) = self.path();
        let saved = (state.clone(), *diverged);
        let value = f(self);
        let (state, diverged) = self.path();
        let end = (
            std::mem::replace(state, saved.0),
            std::mem::replace(diverged, saved.1),
        );
        (value, end)
    }

    /// The end of a branch that does nothing (an `if` with no `else`).
    fn fallthrough(&mut self) -> BranchEnd<Self::State> {
        (self.path().0.clone(), false)
    }

    /// Continues from the join of `ends`.
    fn merge(&mut self, ends: Vec<BranchEnd<Self::State>>) {
        let any = !ends.is_empty();
        let mut live = ends.into_iter().filter(|(_, d)| !d).map(|(s, _)| s);
        match live.next() {
            Some(mut joined) => {
                for s in live {
                    self.join(&mut joined, &s);
                }
                *self.path().0 = joined;
            }
            None => *self.path().1 |= any,
        }
    }
}
