//! Structural classification of a Markov chain.
//!
//! Communicating classes are the strongly connected components of the
//! directed graph with an edge `i → j` whenever `P(i → j) > 0`. A class is
//! *closed* when no edge leaves it; states in closed classes are recurrent,
//! all others are transient. The DSN'11 chain has three closed classes (the
//! absorption sets `AmS`, `AℓS`, `AmP` of Figure 1) plus transient safe and
//! polluted states.

use crate::{Dtmc, SparseDtmc};

/// Result of classifying a chain's states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// `class_of[i]` is the communicating-class id of state `i`.
    pub class_of: Vec<usize>,
    /// States of each class, indexed by class id.
    pub classes: Vec<Vec<usize>>,
    /// `closed[c]` is `true` when class `c` has no outgoing edge.
    pub closed: Vec<bool>,
}

impl Classification {
    /// Indices of all transient states (members of non-closed classes), in
    /// increasing order.
    pub fn transient_states(&self) -> Vec<usize> {
        let mut out: Vec<usize> = (0..self.class_of.len())
            .filter(|&i| !self.closed[self.class_of[i]])
            .collect();
        out.sort_unstable();
        out
    }

    /// Indices of all recurrent states (members of closed classes), in
    /// increasing order.
    pub fn recurrent_states(&self) -> Vec<usize> {
        let mut out: Vec<usize> = (0..self.class_of.len())
            .filter(|&i| self.closed[self.class_of[i]])
            .collect();
        out.sort_unstable();
        out
    }

    /// Ids of the closed classes.
    pub fn closed_classes(&self) -> Vec<usize> {
        (0..self.classes.len())
            .filter(|&c| self.closed[c])
            .collect()
    }

    /// `true` when state `i` is absorbing (a singleton closed class whose
    /// self-loop has probability 1 — equivalently, a singleton closed
    /// class).
    pub fn is_absorbing_state(&self, i: usize) -> bool {
        let c = self.class_of[i];
        self.closed[c] && self.classes[c].len() == 1
    }
}

/// Computes the communicating classes of `chain` with an iterative Tarjan
/// SCC, and marks closed classes.
pub fn classify(chain: &Dtmc) -> Classification {
    let n = chain.n_states();
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| chain.prob(i, j) > 0.0)
                .collect::<Vec<_>>()
        })
        .collect();
    classify_adjacency(adj)
}

/// Sparse counterpart of [`classify`]: the adjacency comes straight from
/// the CSR rows, so the whole classification is O(nnz) instead of O(n²).
///
/// Successors are visited in the same (ascending) order as the dense
/// scan, so both entry points produce identical class ids.
pub fn classify_sparse(chain: &SparseDtmc) -> Classification {
    let n = chain.n_states();
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            chain
                .successors(i)
                .filter(|&(_, v)| v > 0.0)
                .map(|(j, _)| j)
                .collect::<Vec<_>>()
        })
        .collect();
    classify_adjacency(adj)
}

/// Shared classification core over an explicit adjacency list.
fn classify_adjacency(adj: Vec<Vec<usize>>) -> Classification {
    let n = adj.len();
    let sccs = tarjan_scc(&adj);

    let mut class_of = vec![usize::MAX; n];
    for (c, members) in sccs.iter().enumerate() {
        for &s in members {
            class_of[s] = c;
        }
    }
    let closed: Vec<bool> = sccs
        .iter()
        .enumerate()
        .map(|(c, members)| {
            members
                .iter()
                .all(|&s| adj[s].iter().all(|&t| class_of[t] == c))
        })
        .collect();
    Classification {
        class_of,
        classes: sccs,
        closed,
    }
}

/// Iterative Tarjan strongly-connected-components algorithm.
///
/// Returns the components; every vertex appears in exactly one component.
fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frames: (vertex, next child position).
    let mut call_stack: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        call_stack.push((root, 0));
        while let Some(&mut (v, ref mut child_pos)) = call_stack.last_mut() {
            if *child_pos == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *child_pos < adj[v].len() {
                let w = adj[v][*child_pos];
                *child_pos += 1;
                if index[w] == UNVISITED {
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&mut (parent, _)) = call_stack.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    sccs.push(component);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gamblers_ruin() -> Dtmc {
        Dtmc::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.5, 0.0, 0.5, 0.0],
            &[0.0, 0.5, 0.0, 0.5],
            &[0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap()
    }

    #[test]
    fn gamblers_ruin_classification() {
        let c = classify(&gamblers_ruin());
        assert_eq!(c.transient_states(), vec![1, 2]);
        assert_eq!(c.recurrent_states(), vec![0, 3]);
        assert!(c.is_absorbing_state(0));
        assert!(c.is_absorbing_state(3));
        assert!(!c.is_absorbing_state(1));
        assert_eq!(c.closed_classes().len(), 2);
    }

    #[test]
    fn irreducible_chain_is_one_closed_class() {
        let p = Dtmc::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        let c = classify(&p);
        assert_eq!(c.classes.len(), 1);
        assert!(c.closed[0]);
        assert!(c.transient_states().is_empty());
    }

    #[test]
    fn closed_class_of_two_states_is_recurrent_but_not_absorbing() {
        // 0 <-> 1 closed; 2 drains into them.
        let p = Dtmc::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.3, 0.3, 0.4]]).unwrap();
        let c = classify(&p);
        assert_eq!(c.transient_states(), vec![2]);
        assert_eq!(c.recurrent_states(), vec![0, 1]);
        assert!(!c.is_absorbing_state(0));
    }

    #[test]
    fn chain_of_transients() {
        // A long path with a sink at the end (stress for iterative Tarjan).
        let n = 500;
        let mut rows = Vec::new();
        for i in 0..n {
            let mut row = vec![0.0; n];
            if i + 1 < n {
                row[i + 1] = 1.0;
            } else {
                row[i] = 1.0;
            }
            rows.push(row);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let p = Dtmc::from_rows(&refs).unwrap();
        let c = classify(&p);
        assert_eq!(c.transient_states().len(), n - 1);
        assert!(c.is_absorbing_state(n - 1));
    }

    #[test]
    fn sparse_and_dense_classification_agree() {
        let dense = gamblers_ruin();
        let sparse = crate::SparseDtmc::from_dense(&dense);
        let a = classify(&dense);
        let b = classify_sparse(&sparse);
        assert_eq!(a, b);
    }
}
