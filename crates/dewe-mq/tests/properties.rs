//! Model-based property test: a topic against a reference queue.

use dewe_mq::Topic;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Operations applied to both the real topic and a VecDeque model.
#[derive(Debug, Clone)]
enum Op {
    Publish(u32),
    TryPull,
    Len,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![(0u32..1000).prop_map(Op::Publish), Just(Op::TryPull), Just(Op::Len),]
}

proptest! {
    /// Sequential Topic behaviour is exactly a FIFO queue.
    #[test]
    fn topic_matches_fifo_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let topic: Topic<u32> = Topic::new();
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut published = 0u64;
        let mut delivered = 0u64;
        for op in ops {
            match op {
                Op::Publish(v) => {
                    topic.publish(v);
                    model.push_back(v);
                    published += 1;
                }
                Op::TryPull => {
                    let got = topic.try_pull();
                    let want = model.pop_front();
                    prop_assert_eq!(got, want);
                    if want.is_some() {
                        delivered += 1;
                    }
                }
                Op::Len => {
                    prop_assert_eq!(topic.len(), model.len());
                }
            }
            let stats = topic.stats();
            prop_assert_eq!(stats.published, published);
            prop_assert_eq!(stats.delivered, delivered);
            prop_assert_eq!(stats.depth, model.len());
        }
    }
}
