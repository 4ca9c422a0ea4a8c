//! The [`Algorithm`] trait: what an anonymous node can do.

use std::fmt::Debug;

use anonet_graph::{NodeId, Port};

/// An anonymous message-passing algorithm (paper, Section 1.1).
///
/// Every node executes the same algorithm; a node's only inputs are its
/// input label, its degree, the messages arriving on its ports, and one
/// random bit per round. There are **no identifiers** and no global
/// knowledge — anything else an algorithm "knows" must travel in messages.
///
/// # Round structure
///
/// In round `r` (rounds are numbered from 1) each non-halted node:
///
/// 1. composes an optional message for each of its ports from its current
///    state ([`Algorithm::compose`]);
/// 2. the runtime delivers all messages along edges;
/// 3. steps its state given the round number, its inbox, and one random
///    bit ([`Algorithm::step`]), possibly writing its irrevocable output
///    and/or halting through [`Actions`].
///
/// # Determinism requirement
///
/// Both methods must be **pure functions** of their arguments: the entire
/// derandomization machinery (simulations induced by prescribed bit
/// assignments, execution lifting) relies on replaying executions
/// bit-for-bit. Do not read clocks, global RNGs, or other ambient state.
///
/// A *deterministic* anonymous algorithm is simply one that ignores the
/// `bit` argument.
pub trait Algorithm {
    /// Input label type (what `i(v)` carries).
    type Input: Clone + Debug;
    /// Message type exchanged on edges.
    type Message: Clone + Eq + Debug;
    /// Irrevocable output type.
    type Output: Clone + Eq + Debug;
    /// Per-node local state. `Eq` is required so executions can be
    /// compared node-by-node (the lifting-lemma experiments do exactly
    /// that).
    type State: Clone + Eq + Debug;

    /// Initial state of a node with the given input label and degree.
    ///
    /// The paper assumes the input label always includes the degree; the
    /// runtime passes the degree explicitly so input types need not
    /// duplicate it.
    fn init(&self, input: &Self::Input, degree: usize) -> Self::State;

    /// The message to send on `port` this round, or `None` for silence.
    fn compose(&self, state: &Self::State, port: Port) -> Option<Self::Message>;

    /// Writes this round's outgoing messages into `outbox` (empty on
    /// entry; one slot per port). The engine calls this, not
    /// [`Algorithm::compose`], once per active node per round.
    ///
    /// The default composes each port separately. Override it only to
    /// share one message across ports ([`Outbox::broadcast`]): the
    /// messages sent must be exactly those `compose` would produce.
    fn outgoing(&self, state: &Self::State, outbox: &mut Outbox<Self::Message>) {
        for p in 0..outbox.degree() {
            let port = Port::new(p);
            if let Some(msg) = self.compose(state, port) {
                outbox.send(port, msg);
            }
        }
    }

    /// State transition at the end of a round.
    ///
    /// `round` is 1-indexed. `bit` is this round's random bit — exactly
    /// one per round, per the paper's normalization.
    fn step(
        &self,
        state: Self::State,
        round: usize,
        inbox: &Inbox<'_, Self::Message>,
        bit: bool,
        actions: &mut Actions<Self::Output>,
    ) -> Self::State;
}

/// The messages one node sends in one round, one slot per port.
///
/// Filled by [`Algorithm::outgoing`]. A broadcast is stored once and read
/// by every neighbor, so sharing a message costs one value, not one clone
/// per port.
#[derive(Debug)]
pub struct Outbox<M> {
    degree: usize,
    /// The message on every port, while `ports` is empty.
    shared: Option<M>,
    /// Per-port messages; empty until [`Outbox::send`] is first called.
    ports: Vec<Option<M>>,
}

impl<M> Outbox<M> {
    /// An empty outbox for a node of the given degree.
    pub(crate) fn new(degree: usize) -> Self {
        Outbox { degree, shared: None, ports: Vec::new() }
    }

    /// Number of ports (= the node's degree).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Sends `msg` on every port, replacing anything sent before.
    pub fn broadcast(&mut self, msg: M) {
        self.ports.clear();
        self.shared = Some(msg);
    }

    /// The message on `port`, if any.
    pub fn get(&self, port: Port) -> Option<&M> {
        if self.ports.is_empty() {
            self.shared.as_ref()
        } else {
            self.ports[port.index()].as_ref()
        }
    }

    /// Empties every port, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.shared = None;
        self.ports.clear();
    }
}

impl<M: Clone> Outbox<M> {
    /// Sends `msg` on `port`, replacing what that port held.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range for this node's degree.
    pub fn send(&mut self, port: Port, msg: M) {
        if self.ports.is_empty() {
            let shared = self.shared.take();
            self.ports.resize(self.degree, shared);
        }
        self.ports[port.index()] = Some(msg);
    }
}

/// The messages a node received this round, indexed by its own ports.
///
/// `None` on a port means the neighbor sent nothing (or has halted). The
/// inbox borrows the messages from the senders' [`Outbox`]es: receiving
/// copies nothing.
pub struct Inbox<'a, M> {
    slots: Slots<'a, M>,
}

enum Slots<'a, M> {
    /// Port `q` reads port `back[q]` of the outbox of neighbor `from[q]`.
    Delivered {
        from: &'a [NodeId],
        back: &'a [Port],
        outboxes: &'a [Outbox<M>],
    },
    Explicit(Vec<Option<&'a M>>),
}

impl<'a, M> Inbox<'a, M> {
    pub(crate) fn delivered(
        from: &'a [NodeId],
        back: &'a [Port],
        outboxes: &'a [Outbox<M>],
    ) -> Self {
        Inbox { slots: Slots::Delivered { from, back, outboxes } }
    }

    /// Builds an inbox from explicit per-port slots. Useful for unit
    /// testing algorithms in isolation and for adapters (such as the
    /// color-based port emulation) that reconstruct port-indexed
    /// deliveries from other message formats.
    pub fn from_slots(slots: Vec<Option<&'a M>>) -> Self {
        Inbox { slots: Slots::Explicit(slots) }
    }

    /// The message received on `port`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range for this node's degree.
    pub fn get(&self, port: Port) -> Option<&'a M> {
        match &self.slots {
            Slots::Delivered { from, back, outboxes } => {
                outboxes[from[port.index()].index()].get(back[port.index()])
            }
            Slots::Explicit(slots) => slots[port.index()],
        }
    }

    /// Number of ports (= the node's degree).
    pub fn len(&self) -> usize {
        match &self.slots {
            Slots::Delivered { from, .. } => from.len(),
            Slots::Explicit(slots) => slots.len(),
        }
    }

    /// `true` if the node has no ports (single-node graph).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(port, message)` pairs for ports that received one.
    pub fn iter(&self) -> impl Iterator<Item = (Port, &'a M)> + '_ {
        (0..self.len()).filter_map(|p| self.get(Port::new(p)).map(|m| (Port::new(p), m)))
    }

    /// `true` if every port received a message.
    pub fn is_full(&self) -> bool {
        (0..self.len()).all(|p| self.get(Port::new(p)).is_some())
    }
}

impl<M: Debug> Debug for Inbox<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries((0..self.len()).map(|p| self.get(Port::new(p)))).finish()
    }
}

/// Effects a node can produce during [`Algorithm::step`].
#[derive(Debug)]
pub struct Actions<O> {
    pub(crate) output: Option<O>,
    pub(crate) output_written: bool,
    pub(crate) halt: bool,
}

impl<O: Clone + Eq> Actions<O> {
    pub(crate) fn new(existing_output: Option<O>) -> Self {
        Actions { output: existing_output, output_written: false, halt: false }
    }

    /// Writes the node's irrevocable output.
    ///
    /// Writing the *same* value again is a no-op; writing a different
    /// value is an algorithm bug that the runtime reports as
    /// [`RuntimeError::OutputConflict`](crate::RuntimeError::OutputConflict).
    pub fn output(&mut self, value: O) {
        match &self.output {
            Some(existing) if *existing != value => {
                self.output_written = true; // flag conflict; engine checks
                self.output = Some(value);
            }
            Some(_) => {}
            None => {
                self.output = Some(value);
            }
        }
    }

    /// Halts the node: it will neither send nor receive from the next
    /// round on. Halting is independent of producing an output, but a
    /// well-formed Las-Vegas algorithm outputs before (or when) halting.
    pub fn halt(&mut self) {
        self.halt = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_access() {
        let inbox = Inbox::from_slots(vec![Some(&1u8), None, Some(&3)]);
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.get(Port::new(0)), Some(&1));
        assert_eq!(inbox.get(Port::new(1)), None);
        assert!(!inbox.is_full());
        let pairs: Vec<(Port, &u8)> = inbox.iter().collect();
        assert_eq!(pairs, vec![(Port::new(0), &1), (Port::new(2), &3)]);
        assert_eq!(format!("{inbox:?}"), "[Some(1), None, Some(3)]");
    }

    #[test]
    fn outbox_shares_a_broadcast_and_splits_on_send() {
        let mut out: Outbox<u8> = Outbox::new(3);
        assert_eq!(out.get(Port::new(1)), None);
        out.broadcast(7);
        assert!((0..3).all(|p| out.get(Port::new(p)) == Some(&7)));
        out.send(Port::new(1), 9);
        assert_eq!(out.get(Port::new(0)), Some(&7));
        assert_eq!(out.get(Port::new(1)), Some(&9));
        out.clear();
        assert!((0..3).all(|p| out.get(Port::new(p)).is_none()));
        out.send(Port::new(2), 1);
        assert_eq!(out.get(Port::new(0)), None);
        assert_eq!(out.get(Port::new(2)), Some(&1));
    }

    #[test]
    fn delivered_inbox_reads_the_senders_outboxes() {
        // Node 0 of a path 1 - 0 - 2: port 0 faces node 1 (its port 0),
        // port 1 faces node 2 (its port 0).
        let mut outboxes: Vec<Outbox<u8>> = vec![Outbox::new(2), Outbox::new(1), Outbox::new(1)];
        outboxes[1].broadcast(4);
        outboxes[2].send(Port::new(0), 5);
        let from = [NodeId::new(1), NodeId::new(2)];
        let back = [Port::new(0), Port::new(0)];
        let inbox = Inbox::delivered(&from, &back, &outboxes);
        assert_eq!(inbox.len(), 2);
        assert!(inbox.is_full());
        assert_eq!(inbox.iter().map(|(_, m)| *m).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn actions_idempotent_output() {
        let mut a: Actions<u8> = Actions::new(None);
        a.output(5);
        a.output(5);
        assert_eq!(a.output, Some(5));
        assert!(!a.output_written);
    }

    #[test]
    fn actions_conflicting_output_flags() {
        let mut a: Actions<u8> = Actions::new(Some(5));
        a.output(6);
        assert!(a.output_written);
    }

    #[test]
    fn actions_halt() {
        let mut a: Actions<u8> = Actions::new(None);
        assert!(!a.halt);
        a.halt();
        assert!(a.halt);
    }
}
