#include "random_history.hpp"

#include <vector>

namespace sia {

History random_history(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> sessions_dist(1, 3);
  std::uniform_int_distribution<int> txns_dist(1, 3);
  std::uniform_int_distribution<int> events_dist(1, 3);
  std::uniform_int_distribution<int> obj_dist(0, 1);
  std::uniform_int_distribution<int> val_dist(0, 2);
  std::uniform_int_distribution<int> kind_dist(0, 1);

  HistoryBuilder b;
  const ObjId x = b.obj("x");
  const ObjId y = b.obj("y");
  b.init_txn({x, y});
  const int sessions = sessions_dist(rng);
  for (int s = 0; s < sessions; ++s) {
    b.session();
    const int txns = txns_dist(rng);
    for (int t = 0; t < txns; ++t) {
      std::vector<Event> events;
      const int n = events_dist(rng);
      for (int e = 0; e < n; ++e) {
        const ObjId obj = static_cast<ObjId>(obj_dist(rng));
        const Value val = val_dist(rng);
        events.push_back(kind_dist(rng) == 0 ? read(obj, val)
                                             : write(obj, val));
      }
      b.txn(std::move(events));
    }
  }
  return b.build();
}

}  // namespace sia
