// Compile-only probe for the breakdown vocabulary, built with -fsyntax-only
// by the component_label.* ctests and never linked. The two tests differ
// only in DREDBOX_MISSPELT_LABEL, so the misspelt build failing while the
// shipped-label build compiles pins the failure on the label itself.

#include "sim/component.hpp"

#ifdef DREDBOX_MISSPELT_LABEL
constexpr dredbox::sim::ComponentId kProbe = dredbox::sim::component("serialisation");
#else
constexpr dredbox::sim::ComponentId kProbe = dredbox::sim::component("serialization");
#endif

static_assert(dredbox::sim::component_label(kProbe).size() > 0);
