#pragma once
// Fixture: only the umbrella header and a test include this.
