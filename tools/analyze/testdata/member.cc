// Fixture: a proof that crosses a call through a member. `Front` and its
// `Inner inner_` member are declared in member.h, which sorts after this
// file; `RowCursor` below declares another `inner_` of another type, and
// `Reuse` is not a unique method name. The member tables of every file
// must exist before any body is read, so `inner_` is typed from `Front`'s
// own table and the allocation in `Inner::Reuse` is reported.

namespace fx {

class Cursor {
 public:
  bool Reuse(int q) { return q > 0; }
};

class RowCursor {
 public:
  bool Next() { return inner_.Reuse(1); }

 private:
  Cursor inner_;
};

SCRPQO_NOALLOC
bool Front::ReuseFast(int q) {
  return inner_.Reuse(q);
}

// A function outside both classes: the two `inner_` declarations disagree,
// so the receiver stays untyped and the unique name `Drain` resolves.
SCRPQO_NOALLOC
void DrainFront(Front& front) {
  front.inner_.Drain();
}

}  // namespace fx
